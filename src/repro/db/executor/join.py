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
from repro.db.plan import PULSE, ExecutionContext, PlanNode
from repro.db.temp import SpillFile, route_rows

KeyFn = Callable[[tuple], object]
JoinPred = Callable[[tuple, tuple], bool]
PairProj = Callable[[tuple, tuple | None], tuple]

SPILL_PARTITIONS = 8
_JOIN_MODES = {"inner", "semi", "anti", "left"}


class Hash(PlanNode):
    """Blocking build-side materialisation for a hash join.

    Not executable on its own: its :class:`HashJoin` drives the build
    through :meth:`build_iter_batch`.
    """

    is_blocking = True

    def __init__(self, child: PlanNode, key: KeyFn, label: str | None = None):
        super().__init__(child, label=label or "Hash")
        self.key = key

    def build_iter_batch(self, ctx: ExecutionContext):
        """Consume the child, yielding pulses; returns the build result.

        Generator-with-return: drive it with ``yield from`` to propagate
        pulses; the return value is ``(table, None)`` for an in-memory
        build or ``(None, partitions)`` after a grace spill.  The build
        spills once more than ``work_mem`` rows have arrived and routes
        every row in arrival order (see :func:`route_rows`).
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


def _append_matches(
    out: list, mode: str, project: PairProj | None, row: tuple, matches
) -> None:
    """Append one probe row's join output to ``out``."""
    if mode == "inner":
        for match in matches:
            out.append(_combine(project, row, match))
    elif mode == "semi":
        # A semi join yields the probe row itself (the first match only
        # witnesses existence).
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
                # Every probe is (potential) random I/O: pulse every 8
                # probes inside the batch, so a co-running query gets
                # its turn between runs of random reads.
                probes += 1
                if probes % 8 == 0:
                    yield PULSE
                matches = inner.probe(ctx, outer_key(row))
                if pred is not None:
                    matches = [m for m in matches if pred(row, m)]
                out: list[tuple] = []
                _append_matches(out, mode, project, row, matches)
                # One mini-batch per outer row: a downstream random-access
                # operator (e.g. a stacked NLIJ, as in Q21) issues its
                # probe for this row *before* the next probe here, so the
                # two index scans' random reads interleave row by row.
                if out:
                    yield out


def _combine(project: PairProj | None, left: tuple, right: tuple | None) -> tuple:
    if project is not None:
        return project(left, right)
    if right is None:
        return left
    return left + right
