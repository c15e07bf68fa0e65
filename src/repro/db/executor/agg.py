"""Aggregation operators.

``HashAggregate`` is the hybrid hash aggregation: groups stay in memory
until the group count exceeds ``work_mem``; rows for *new* groups then
spill to temp partitions (grace-style) while resident groups keep
aggregating in place.  This is the "hash" operator that generates the
temporary data dominating the paper's Q18 (Figure 10).

``StreamAggregate`` aggregates grouped (sorted) input — or everything into
a single group when ``group_key`` is None — without materialisation.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.db.executor.join import _new_partitions
from repro.db.exprs import AggSpec, AggState
from repro.db.plan import PULSE, ExecutionContext, PlanNode, chunk_rows
from repro.db.temp import route_rows

KeyFn = Callable[[tuple], object]
GroupProj = Callable[[object, tuple], tuple]
"""(group key, aggregate results) -> output row."""


def _default_group_proj(key, results: tuple) -> tuple:
    if isinstance(key, tuple):
        return key + results
    return (key,) + results


class HashAggregate(PlanNode):
    """Blocking hash aggregation with grace-style spilling."""

    is_blocking = True

    def __init__(
        self,
        child: PlanNode,
        group_key: KeyFn,
        aggs: list[AggSpec],
        having: Callable[[tuple], bool] | None = None,
        project: GroupProj | None = None,
        label: str | None = None,
    ) -> None:
        super().__init__(child, label=label or "HashAggregate")
        self.group_key = group_key
        self.aggs = aggs
        self.having = having
        self.project = project if project is not None else _default_group_proj

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        groups: dict[object, AggState] = {}
        partitions = None
        group_key, aggs = self.group_key, self.aggs
        work_mem = ctx.work_mem_rows
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            yield PULSE
            missed: list[tuple] = []
            for row in item:
                key = group_key(row)
                state = groups.get(key)
                if state is None:
                    if partitions is None and len(groups) >= work_mem:
                        partitions = _new_partitions(ctx)
                    if partitions is not None:
                        missed.append(row)
                        continue
                    state = groups[key] = AggState(aggs)
                state.add(row)
            if missed:
                # Resident groups aggregate in place and issue no I/O, so
                # routing the batch's overflow rows after the loop puts
                # every page allocation where a row-by-row routing would.
                route_rows(partitions, group_key, missed)

        yield from chunk_rows(self._emit(groups))
        if partitions is not None:
            for part in partitions:
                part.finish_writing()
            for part in partitions:
                yield from self._aggregate_batches(ctx, part.read_batches())
                part.delete()

    def _aggregate_batches(self, ctx: ExecutionContext, batches) -> Iterator:
        groups: dict[object, AggState] = {}
        group_key = self.group_key
        for batch in batches:
            ctx.cpu_tick(len(batch))
            yield PULSE
            for row in batch:
                key = group_key(row)
                state = groups.get(key)
                if state is None:
                    state = groups[key] = AggState(self.aggs)
                state.add(row)
        yield from chunk_rows(self._emit(groups))

    def _emit(self, groups: dict) -> Iterator[tuple]:
        for key, state in groups.items():
            out = self.project(key, state.results())
            if self.having is not None and not self.having(out):
                continue
            yield out


class StreamAggregate(PlanNode):
    """Aggregation over grouped input (or a single group)."""

    is_blocking = True

    def __init__(
        self,
        child: PlanNode,
        aggs: list[AggSpec],
        group_key: KeyFn | None = None,
        project: GroupProj | None = None,
        label: str | None = None,
    ) -> None:
        super().__init__(child, label=label or "StreamAggregate")
        self.group_key = group_key
        self.aggs = aggs
        self.project = project if project is not None else _default_group_proj

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        batches = self.children[0].execute_batch(ctx)
        if self.group_key is None:
            state = AggState(self.aggs)
            add = state.add
            seen_any = False
            for item in batches:
                if item is PULSE:
                    yield PULSE
                    continue
                ctx.cpu_tick(len(item))
                for row in item:
                    add(row)
                seen_any = True
            if seen_any:
                yield [state.results()]
            return

        group_key, project = self.group_key, self.project
        current_key = None
        state = None
        for item in batches:
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            out: list[tuple] = []
            for row in item:
                key = group_key(row)
                if state is None or key != current_key:
                    if state is not None:
                        out.append(project(current_key, state.results()))
                    current_key = key
                    state = AggState(self.aggs)
                state.add(row)
            # Flush finished groups per input batch (not across batches):
            # each emission stays in the inter-I/O gap where its group
            # closed.
            if out:
                yield out
        if state is not None:
            yield [project(current_key, state.results())]
