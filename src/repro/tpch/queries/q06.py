"""Q6 — Forecasting Revenue Change.

A single filtered sequential scan of lineitem with a scalar aggregate —
pure sequential traffic.
"""

from repro.db.executor import SeqScan, StreamAggregate
from repro.db.exprs import agg_sum
from repro.tpch.queries.util import L, d, rel

QUERY_ID = 6
TITLE = "Forecasting Revenue Change"

_LO = d("1994-01-01")
_HI = d("1995-01-01")
_SHIP = L["l_shipdate"]
_DISC = L["l_discount"]
_QTY = L["l_quantity"]


def build(db):
    scan = SeqScan(
        rel(db, "lineitem"),
        pred=lambda r: (
            _LO <= r[_SHIP] < _HI
            and 0.05 <= r[_DISC] <= 0.07
            and r[_QTY] < 24
        ),
    )
    _PRICE = L["l_extendedprice"]
    return StreamAggregate(
        scan, aggs=[agg_sum(lambda r: r[_PRICE] * r[_DISC])]
    )
