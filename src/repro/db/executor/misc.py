"""Small pipeline operators: filter, project, limit, top-N, materialise."""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from repro.db.errors import ExecutionError
from repro.db.plan import PULSE, ExecutionContext, PlanNode, chunk_rows


class Filter(PlanNode):
    """Row filter."""

    def __init__(self, child: PlanNode, pred: Callable[[tuple], bool],
                 label: str | None = None) -> None:
        super().__init__(child, label=label or "Filter")
        self.pred = pred

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

    Cuts the batch that reaches the n-th row and stops pulling from its
    child, so upstream work ends with the batch that holds that row.
    """

    def __init__(self, child: PlanNode, n: int, label: str | None = None) -> None:
        if n < 0:
            raise ExecutionError("limit must be non-negative")
        super().__init__(child, label=label or f"Limit({n})")
        self.n = n

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        remaining = self.n
        if remaining == 0:
            return
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            if len(item) >= remaining:
                yield item[:remaining]
                return
            remaining -= len(item)
            yield item


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
