"""Shared helpers for the TPC-H plan builders.

Column positions are static per schema, so each table gets a module-level
name->position map (``L`` for lineitem, ``O`` for orders, ...).  Plans keep
intermediate rows slim with explicit projections; each builder documents
its intermediate layouts inline.
"""

from __future__ import annotations

import bisect

from repro.db.catalog import Index, Relation
from repro.db.engine import Database
from repro.db.plan import PULSE, ExecutionContext, PlanNode
from repro.db.tuples import date_to_days
from repro.tpch.schema import TABLE_SCHEMAS


def _colmap(table: str) -> dict[str, int]:
    return {c.name: i for i, c in enumerate(TABLE_SCHEMAS[table].columns)}


L = _colmap("lineitem")
O = _colmap("orders")
C = _colmap("customer")
P = _colmap("part")
PS = _colmap("partsupp")
S = _colmap("supplier")
N = _colmap("nation")
R = _colmap("region")

d = date_to_days
"""Date literal: d('1994-01-01') -> day number."""

_YEAR_STARTS = [d(f"{y}-01-01") for y in range(1992, 2000)]


def year_of(days: int) -> int:
    """Calendar year of a day number (TPC-H dates are 1992..1998)."""
    return 1991 + bisect.bisect_right(_YEAR_STARTS, days)


def rel(db: Database, name: str) -> Relation:
    return db.catalog.relation(name)


def ix(db: Database, name: str) -> Index:
    return db.catalog.index(name)


class ScalarThresholdFilter(PlanNode):
    """Filter rows against a scalar computed by a sub-plan (an InitPlan).

    Children are ``[input, scalar_plan]``; the scalar plan is run to
    completion first (its single row's first column is the scalar), then
    input rows satisfying ``pred(row, scalar)`` stream through.  Used for
    Q11's value threshold, Q15's max revenue and Q22's average balance.
    """

    def __init__(self, child: PlanNode, scalar_plan: PlanNode, pred,
                 label: str | None = None) -> None:
        super().__init__(child, scalar_plan, label=label or "ScalarFilter")
        self.pred = pred

    def execute_batch(self, ctx: ExecutionContext):
        scalar = None
        for item in self.children[1].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
            elif scalar is None:
                scalar = item[0][0]
        pred = self.pred
        for item in self.children[0].execute_batch(ctx):
            if item is PULSE:
                yield PULSE
                continue
            ctx.cpu_tick(len(item))
            out = [row for row in item if pred(row, scalar)]
            if out:
                yield out
