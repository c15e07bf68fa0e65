"""Sort operator: in-memory or external merge sort with temp spill runs."""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from repro.db.plan import (
    PULSE,
    PULSE_EVERY,
    ExecutionContext,
    PlanNode,
    chunk_rows,
)

KeyFn = Callable[[tuple], object]


class Sort(PlanNode):
    """Blocking sort.

    Inputs up to ``work_mem`` rows sort in memory; larger inputs spill
    sorted runs to temporary files and merge them (classic external merge
    sort).  Runs are temp data: written at priority 1 and TRIMmed as soon
    as the merge finishes.
    """

    is_blocking = True

    def __init__(
        self,
        child: PlanNode,
        key: KeyFn,
        reverse: bool = False,
        label: str | None = None,
    ) -> None:
        super().__init__(child, label=label or "Sort")
        self.key = key
        self.reverse = reverse

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        runs: list = []
        buffer: list[tuple] = []
        work_mem = ctx.work_mem_rows
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            yield PULSE
            if len(buffer) + len(item) <= work_mem:
                buffer.extend(item)
                continue
            # The batch crosses work_mem: a run spills at exactly
            # work_mem + 1 buffered rows, wherever the batch boundary is.
            for row in item:
                buffer.append(row)
                if len(buffer) > work_mem:
                    runs.append(self._spill_run(ctx, buffer))
                    buffer = []
        if not runs:
            buffer.sort(key=self.key, reverse=self.reverse)
            yield from chunk_rows(buffer)
            return
        if buffer:
            runs.append(self._spill_run(ctx, buffer))
        streams = [run.read_all() for run in runs]
        emitted = 0
        try:
            # The merge pulls from the spill runs' read streams lazily, so
            # each merged row sits between run-page reads: emit one-row
            # mini-batches rather than accumulating across those I/O
            # boundaries.
            for row in heapq.merge(*streams, key=self.key, reverse=self.reverse):
                ctx.cpu_tick()
                emitted += 1
                if emitted % PULSE_EVERY == 0:
                    yield PULSE
                yield [row]
        finally:
            for run in runs:
                run.delete()

    def _spill_run(self, ctx: ExecutionContext, buffer: list[tuple]):
        buffer.sort(key=self.key, reverse=self.reverse)
        run = ctx.temp.create(ctx.query_id)
        run.append_rows(buffer)
        run.finish_writing()
        return run
