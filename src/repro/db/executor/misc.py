"""Small pipeline operators: filter, project, limit, top-N, materialise."""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from repro.db.errors import ExecutionError
from repro.db.plan import (
    PULSE,
    PULSE_EVERY,
    ExecutionContext,
    PlanNode,
    chunk_rows,
)


class Filter(PlanNode):
    """Row filter."""

    def __init__(self, child: PlanNode, pred: Callable[[tuple], bool],
                 label: str | None = None) -> None:
        super().__init__(child, label=label or "Filter")
        self.pred = pred

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        pred = self.pred
        for row in self.children[0].execute(ctx):
            if row is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick()
            if pred(row):
                yield row

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        pred = self.pred
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            out = [row for row in item if pred(row)]
            if out:
                yield out


class Project(PlanNode):
    """Row projection / expression evaluation."""

    def __init__(self, child: PlanNode, fn: Callable[[tuple], tuple],
                 label: str | None = None) -> None:
        super().__init__(child, label=label or "Project")
        self.fn = fn

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        fn = self.fn
        for row in self.children[0].execute(ctx):
            if row is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick()
            yield fn(row)

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        fn = self.fn
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            yield [fn(row) for row in item]


class Limit(PlanNode):
    """First-N rows.

    No native ``execute_batch``: truncation is inherently row-at-a-time —
    the row path stops pulling (and stops charging CPU) at exactly the
    n-th output row, while a batch-granular child would have charged for
    the whole final batch before Limit could truncate it.  The default
    mini-batch adapter runs the subtree on the row path, keeping the
    simulated-results invariant exact.
    """

    def __init__(self, child: PlanNode, n: int, label: str | None = None) -> None:
        if n < 0:
            raise ExecutionError("limit must be non-negative")
        super().__init__(child, label=label or f"Limit({n})")
        self.n = n

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        if self.n == 0:
            return
        produced = 0
        for row in self.children[0].execute(ctx):
            if row is PULSE:
                yield PULSE
                continue
            yield row
            produced += 1
            if produced >= self.n:
                return


class TopN(PlanNode):
    """Order-by + limit in one blocking heap pass (no spill needed)."""

    is_blocking = True

    def __init__(
        self,
        child: PlanNode,
        key: Callable[[tuple], object],
        n: int,
        reverse: bool = False,
        label: str | None = None,
    ) -> None:
        if n < 1:
            raise ExecutionError("TopN needs n >= 1")
        super().__init__(child, label=label or f"TopN({n})")
        self.key = key
        self.n = n
        self.reverse = reverse

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        rows = []
        seen = 0
        for row in self.children[0].execute(ctx):
            if row is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick()
            seen += 1
            if seen % PULSE_EVERY == 0:
                yield PULSE
            rows.append(row)
        pick = heapq.nlargest if self.reverse else heapq.nsmallest
        yield from pick(self.n, rows, key=self.key)

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        rows: list[tuple] = []
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            rows.extend(item)
            yield PULSE
        pick = heapq.nlargest if self.reverse else heapq.nsmallest
        top = pick(self.n, rows, key=self.key)
        if top:
            yield top


class Materialize(PlanNode):
    """In-memory materialisation of a small input (rescannable).

    Several TPC-H plans share one Materialize instance between two
    consumers (a decorrelated aggregate and the main pipeline); the first
    execution buffers rows, later executions replay them without touching
    storage.
    """

    is_blocking = True

    def __init__(self, child: PlanNode, label: str | None = None) -> None:
        super().__init__(child, label=label or "Materialize")
        self._rows: list[tuple] | None = None

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        if self._rows is None:
            rows: list[tuple] = []
            for row in self.children[0].execute(ctx):
                if row is PULSE:
                    yield PULSE
                    continue
                rows.append(row)
            self._rows = rows
        yield from self._rows

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        if self._rows is None:
            rows: list[tuple] = []
            for item in self.children[0].execute_batch(ctx):
                if item is PULSE:
                    yield PULSE
                    continue
                rows.extend(item)
            self._rows = rows
        yield from chunk_rows(self._rows)

    def reset(self) -> None:
        self._rows = None
