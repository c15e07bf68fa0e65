"""Aggregate specifications and accumulators for the executor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.db.errors import ExecutionError

Row = tuple
ValueFn = Callable[[Row], object]

_AGG_KINDS = {"sum", "count", "avg", "min", "max"}


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: kind plus the value expression (None = count(*))."""

    kind: str
    value: ValueFn | None = None

    def __post_init__(self) -> None:
        if self.kind not in _AGG_KINDS:
            raise ExecutionError(f"unknown aggregate kind {self.kind!r}")
        if self.kind != "count" and self.value is None:
            raise ExecutionError(f"{self.kind} needs a value expression")


def agg_sum(fn: ValueFn) -> AggSpec:
    return AggSpec("sum", fn)


def agg_count(fn: ValueFn | None = None) -> AggSpec:
    return AggSpec("count", fn)


def agg_avg(fn: ValueFn) -> AggSpec:
    return AggSpec("avg", fn)


def agg_min(fn: ValueFn) -> AggSpec:
    return AggSpec("min", fn)


def agg_max(fn: ValueFn) -> AggSpec:
    return AggSpec("max", fn)


class _Acc:
    __slots__ = ("spec", "total", "count", "best")

    def __init__(self, spec: AggSpec) -> None:
        self.spec = spec
        self.total = 0.0
        self.count = 0
        self.best = None

    def add(self, row: Row) -> None:
        kind = self.spec.kind
        if kind == "count":
            if self.spec.value is None or self.spec.value(row) is not None:
                self.count += 1
            return
        value = self.spec.value(row)
        if value is None:
            return
        if kind in ("sum", "avg"):
            self.total += value
            self.count += 1
        elif kind == "min":
            if self.best is None or value < self.best:
                self.best = value
        elif kind == "max":
            if self.best is None or value > self.best:
                self.best = value

    def result(self):
        kind = self.spec.kind
        if kind == "count":
            return self.count
        if kind == "sum":
            return self.total if self.count else None
        if kind == "avg":
            return self.total / self.count if self.count else None
        return self.best


class AggState:
    """Accumulators for one group."""

    __slots__ = ("accs",)

    def __init__(self, specs: list[AggSpec]) -> None:
        self.accs = [_Acc(s) for s in specs]

    def add(self, row: Row) -> None:
        for acc in self.accs:
            acc.add(row)

    def results(self) -> tuple:
        return tuple(acc.result() for acc in self.accs)
