"""Join operators: hash join (with grace-style spilling) and nested loops.

The ``Hash`` node mirrors PostgreSQL's plan shape (and the paper's Figures
7, 8 and 10, where shaded "hash" boxes generate temporary data): it is the
*blocking* build-side wrapper.  When the build side exceeds ``work_mem``
the join degrades to a grace hash join — both sides are partitioned into
temporary spill files (priority-1 temp writes under hStorage-DB), joined
partition by partition, and the spill files are deleted (TRIM) as soon as
each partition completes.

All heavy loops emit scheduling pulses (see :mod:`repro.db.plan`) so
co-running queries interleave even inside blocking phases.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.db.errors import ExecutionError
from repro.db.executor.scan import IndexScan
from repro.db.plan import PULSE, PULSE_EVERY, ExecutionContext, PlanNode
from repro.db.temp import SpillFile, route_rows

KeyFn = Callable[[tuple], object]
JoinPred = Callable[[tuple, tuple], bool]
PairProj = Callable[[tuple, tuple | None], tuple]

SPILL_PARTITIONS = 8
_JOIN_MODES = {"inner", "semi", "anti", "left"}


class Hash(PlanNode):
    """Blocking build-side materialisation for a hash join."""

    is_blocking = True

    def __init__(self, child: PlanNode, key: KeyFn, label: str | None = None):
        super().__init__(child, label=label or "Hash")
        self.key = key

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        # Standalone execution just passes rows through (useful in tests);
        # HashJoin drives the build through :meth:`build_iter`.
        yield from self.children[0].execute(ctx)

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        yield from self.children[0].execute_batch(ctx)

    def build_iter(self, ctx: ExecutionContext):
        """Consume the child, yielding pulses; returns the build result.

        Generator-with-return: drive it with ``yield from`` to propagate
        pulses; the return value is ``(table, None)`` for an in-memory
        build or ``(None, partitions)`` after a grace spill.
        """
        key = self.key
        rows: list[tuple] = []
        spilled: list[SpillFile] | None = None
        seen = 0
        for row in self.children[0].execute(ctx):
            if row is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick()
            seen += 1
            if seen % PULSE_EVERY == 0:
                yield PULSE
            if spilled is None:
                rows.append(row)
                if len(rows) > ctx.work_mem_rows:
                    spilled = _new_partitions(ctx)
                    route_rows(spilled, key, rows)
                    rows.clear()
            else:
                spilled[hash(key(row)) % SPILL_PARTITIONS].append(row)
        if spilled is not None:
            for part in spilled:
                part.finish_writing()
            return None, spilled
        table: dict = {}
        for row in rows:
            table.setdefault(key(row), []).append(row)
        return table, None

    def build_iter_batch(self, ctx: ExecutionContext):
        """Vectorized :meth:`build_iter`: batches in, same build result out.

        Spills exactly when the row path does (once more than
        ``work_mem`` rows have arrived) and routes every row in arrival
        order, so the grace partitions — and hence the temp-file I/O —
        are identical.
        """
        key = self.key
        rows: list[tuple] = []
        spilled: list[SpillFile] | None = None
        work_mem = ctx.work_mem_rows
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            yield PULSE
            if spilled is None:
                if len(rows) + len(item) <= work_mem:
                    rows.extend(item)
                    continue
                # This batch crosses work_mem: the buffered rows go out
                # first, then the batch, all in arrival order.
                spilled = _new_partitions(ctx)
                route_rows(spilled, key, rows)
                rows.clear()
            route_rows(spilled, key, item)
        if spilled is not None:
            for part in spilled:
                part.finish_writing()
            return None, spilled
        table: dict = {}
        for row in rows:
            table.setdefault(key(row), []).append(row)
        return table, None


def _new_partitions(ctx: ExecutionContext) -> list[SpillFile]:
    return [ctx.temp.create(ctx.query_id) for _ in range(SPILL_PARTITIONS)]


class HashJoin(PlanNode):
    """Hash join; children are (probe side, Hash(build side))."""

    def __init__(
        self,
        probe: PlanNode,
        hash_node: Hash,
        probe_key: KeyFn,
        mode: str = "inner",
        join_pred: JoinPred | None = None,
        project: PairProj | None = None,
        label: str | None = None,
    ) -> None:
        if not isinstance(hash_node, Hash):
            raise ExecutionError("HashJoin's build child must be a Hash node")
        if mode not in _JOIN_MODES:
            raise ExecutionError(f"unknown join mode {mode!r}")
        super().__init__(probe, hash_node, label=label or f"HashJoin[{mode}]")
        self.probe_key = probe_key
        self.mode = mode
        self.join_pred = join_pred
        self.project = project

    @property
    def hash_node(self) -> Hash:
        return self.children[1]

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        table, partitions = yield from self.hash_node.build_iter(ctx)
        if table is not None:
            yield from self._join_stream(
                ctx, self.children[0].execute(ctx), table
            )
            return
        assert partitions is not None
        probe_parts = _new_partitions(ctx)
        probe_key = self.probe_key
        seen = 0
        for row in self.children[0].execute(ctx):
            if row is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick()
            seen += 1
            if seen % PULSE_EVERY == 0:
                yield PULSE
            probe_parts[hash(probe_key(row)) % SPILL_PARTITIONS].append(row)
        for part in probe_parts:
            part.finish_writing()
        build_key = self.hash_node.key
        for build_part, probe_part in zip(partitions, probe_parts):
            table = {}
            seen = 0
            for row in build_part.read_all():
                ctx.cpu_tick()
                seen += 1
                if seen % PULSE_EVERY == 0:
                    yield PULSE
                table.setdefault(build_key(row), []).append(row)
            yield from self._join_stream(ctx, probe_part.read_all(), table)
            # End of this partition's lifetime: evict its blocks promptly.
            build_part.delete()
            probe_part.delete()

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        table, partitions = yield from self.hash_node.build_iter_batch(ctx)
        if table is not None:
            yield from self._join_batches(
                ctx, self.children[0].execute_batch(ctx), table
            )
            return
        assert partitions is not None
        probe_parts = _new_partitions(ctx)
        probe_key = self.probe_key
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            yield PULSE
            route_rows(probe_parts, probe_key, item)
        for part in probe_parts:
            part.finish_writing()
        build_key = self.hash_node.key
        for build_part, probe_part in zip(partitions, probe_parts):
            table = {}
            for batch in build_part.read_batches():
                ctx.cpu_tick(len(batch))
                yield PULSE
                for row in batch:
                    table.setdefault(build_key(row), []).append(row)
            yield from self._join_batches(ctx, probe_part.read_batches(), table)
            build_part.delete()
            probe_part.delete()

    def _join_batches(
        self, ctx: ExecutionContext, probe_batches, table: dict
    ) -> Iterator:
        mode, pred, project = self.mode, self.join_pred, self.project
        probe_key = self.probe_key
        for item in probe_batches:
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            out: list[tuple] = []
            for row in item:
                matches = table.get(probe_key(row), ())
                if pred is not None:
                    matches = [m for m in matches if pred(row, m)]
                _append_matches(out, mode, project, row, matches)
            if out:
                yield out
            yield PULSE

    def _join_stream(
        self, ctx: ExecutionContext, probe_rows, table: dict
    ) -> Iterator[tuple]:
        mode, pred, project = self.mode, self.join_pred, self.project
        probe_key = self.probe_key
        seen = 0
        for row in probe_rows:
            if row is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick()
            seen += 1
            if seen % PULSE_EVERY == 0:
                yield PULSE
            matches = table.get(probe_key(row), ())
            if pred is not None:
                matches = [m for m in matches if pred(row, m)]
            if mode == "inner":
                for match in matches:
                    yield _combine(project, row, match)
            elif mode == "semi":
                # A semi join yields the probe row itself (the first match
                # only witnesses existence).
                if matches:
                    yield project(row, matches[0]) if project else row
            elif mode == "anti":
                if not matches:
                    yield _combine(project, row, None)
            else:  # left outer
                if matches:
                    for match in matches:
                        yield _combine(project, row, match)
                else:
                    yield _combine(project, row, None)


def _append_matches(
    out: list, mode: str, project: PairProj | None, row: tuple, matches
) -> None:
    """Append one probe row's join output to ``out`` (batch paths)."""
    if mode == "inner":
        for match in matches:
            out.append(_combine(project, row, match))
    elif mode == "semi":
        if matches:
            out.append(project(row, matches[0]) if project else row)
    elif mode == "anti":
        if not matches:
            out.append(_combine(project, row, None))
    else:  # left outer
        if matches:
            for match in matches:
                out.append(_combine(project, row, match))
        else:
            out.append(_combine(project, row, None))


class NestedLoopIndexJoin(PlanNode):
    """Nested loops with an index scan inner side (pipelined, non-blocking)."""

    def __init__(
        self,
        outer: PlanNode,
        inner: IndexScan,
        outer_key: KeyFn,
        mode: str = "inner",
        join_pred: JoinPred | None = None,
        project: PairProj | None = None,
        label: str | None = None,
    ) -> None:
        if not isinstance(inner, IndexScan):
            raise ExecutionError(
                "NestedLoopIndexJoin's inner child must be an IndexScan"
            )
        if mode not in _JOIN_MODES:
            raise ExecutionError(f"unknown join mode {mode!r}")
        super().__init__(outer, inner, label=label or f"NLIJ[{mode}]")
        self.outer_key = outer_key
        self.mode = mode
        self.join_pred = join_pred
        self.project = project

    @property
    def inner(self) -> IndexScan:
        return self.children[1]

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        mode, pred, project = self.mode, self.join_pred, self.project
        outer_key, inner = self.outer_key, self.inner
        seen = 0
        for row in self.children[0].execute(ctx):
            if row is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick()
            # Every probe is (potential) random I/O: pulse per outer row.
            seen += 1
            if seen % 8 == 0:
                yield PULSE
            matches = inner.probe(ctx, outer_key(row))
            if pred is not None:
                matches = [m for m in matches if pred(row, m)]
            if mode == "inner":
                for match in matches:
                    yield _combine(project, row, match)
            elif mode == "semi":
                if matches:
                    yield project(row, matches[0]) if project else row
            elif mode == "anti":
                if not matches:
                    yield _combine(project, row, None)
            else:  # left outer
                if matches:
                    for match in matches:
                        yield _combine(project, row, match)
                else:
                    yield _combine(project, row, None)

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        mode, pred, project = self.mode, self.join_pred, self.project
        outer_key, inner = self.outer_key, self.inner
        probes = 0
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            for row in item:
                # Every probe is (potential) random I/O: keep the row
                # path's pulse-every-8-probes cadence inside the batch.
                probes += 1
                if probes % 8 == 0:
                    yield PULSE
                matches = inner.probe(ctx, outer_key(row))
                if pred is not None:
                    matches = [m for m in matches if pred(row, m)]
                out: list[tuple] = []
                _append_matches(out, mode, project, row, matches)
                # One mini-batch per outer row: a downstream random-access
                # operator (e.g. a stacked NLIJ, as in Q21) must issue its
                # probe for this row *before* the next probe here, or the
                # request order would diverge from the row-at-a-time path.
                if out:
                    yield out


def _combine(project: PairProj | None, left: tuple, right: tuple | None) -> tuple:
    if project is not None:
        return project(left, right)
    if right is None:
        return left
    return left + right
