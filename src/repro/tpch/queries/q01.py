"""Q1 — Pricing Summary Report.

SELECT l_returnflag, l_linestatus, sum(qty), sum(price),
       sum(price*(1-disc)), sum(price*(1-disc)*(1+tax)),
       avg(qty), avg(price), avg(disc), count(*)
FROM lineitem WHERE l_shipdate <= date '1998-12-01' - 90 days
GROUP BY l_returnflag, l_linestatus ORDER BY 1, 2

Plan shape: one full sequential scan of lineitem feeding a small in-memory
hash aggregation — the paper's canonical sequential-request query
(Figures 4 and 5).
"""

from repro.db.executor import HashAggregate, SeqScan, Sort
from repro.db.exprs import agg_avg, agg_count, agg_sum
from repro.tpch.queries.util import L, d, rel

QUERY_ID = 1
TITLE = "Pricing Summary Report"

_CUTOFF = d("1998-12-01") - 90
_SHIP = L["l_shipdate"]
_QTY = L["l_quantity"]
_PRICE = L["l_extendedprice"]
_DISC = L["l_discount"]
_TAX = L["l_tax"]
_RF = L["l_returnflag"]
_LS = L["l_linestatus"]


def build(db):
    scan = SeqScan(rel(db, "lineitem"), pred=lambda r: r[_SHIP] <= _CUTOFF)
    agg = HashAggregate(
        scan,
        group_key=lambda r: (r[_RF], r[_LS]),
        aggs=[
            agg_sum(lambda r: r[_QTY]),
            agg_sum(lambda r: r[_PRICE]),
            agg_sum(lambda r: r[_PRICE] * (1 - r[_DISC])),
            agg_sum(lambda r: r[_PRICE] * (1 - r[_DISC]) * (1 + r[_TAX])),
            agg_avg(lambda r: r[_QTY]),
            agg_avg(lambda r: r[_PRICE]),
            agg_avg(lambda r: r[_DISC]),
            agg_count(),
        ],
    )
    return Sort(agg, key=lambda r: (r[0], r[1]))
