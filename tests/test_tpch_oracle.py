"""Independent oracle: all 22 TPC-H plans against SQLite.

The generated rows are loaded into an in-memory ``sqlite3`` database and
each query runs there as hand-written SQL.  The SQL follows the plan in
``repro.tpch.queries``, not the TPC-H text: where the two differ, the
difference is written beside the SQL.  Dates stay day numbers in both
databases; the SQL turns them into calendar dates with SQLite's own
``date()``, so the oracle shares no code with the engine.

Results compare as multisets, in order where the query has ``ORDER BY``,
and floats to a relative 1e-9.  At this scale every query returns rows,
so no comparison is an empty result checked against an empty one.
"""

from __future__ import annotations

import math
import sqlite3

import pytest

from repro.tpch.datagen import generate
from repro.tpch.queries import QUERY_IDS, query_builder
from repro.tpch.schema import TABLE_SCHEMAS
from repro.tpch.workload import load_tpch
from tests.helpers import make_database

SCALE = 0.6
SEED = 42
REL_TOL = 1e-9

_SQL_TYPES = {"int": "INTEGER", "float": "REAL", "str": "TEXT", "date": "INTEGER"}

# Table 3's indexes, so SQLite's correlated subqueries stay index lookups.
_INDEXES = (
    ("lineitem", "l_orderkey"),
    ("lineitem", "l_partkey"),
    ("orders", "o_orderkey"),
    ("orders", "o_custkey"),
    ("partsupp", "ps_partkey"),
)


def D(column: str) -> str:
    """SQL for the calendar date of a day-number column (day 0 is 1992-01-01)."""
    return f"date('1992-01-01', '+' || {column} || ' days')"


def YEAR(column: str) -> str:
    return f"CAST(strftime('%Y', {D(column)}) AS INTEGER)"


# A global aggregate over no rows yields one NULL row in SQL but no row
# from the engine's StreamAggregate; ``HAVING count(*) > 0`` makes the SQL
# follow the engine (queries 6, 14, 17 and 19).
SQL = {
    1: f"""
        SELECT l_returnflag, l_linestatus,
               sum(l_quantity), sum(l_extendedprice),
               sum(l_extendedprice * (1 - l_discount)),
               sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
               avg(l_quantity), avg(l_extendedprice), avg(l_discount),
               count(*)
        FROM lineitem
        WHERE {D('l_shipdate')} <= date('1998-12-01', '-90 days')
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus""",
    # Deviations: p_size <= 15 (TPC-H: = 15); the output is the whole
    # joined row, not TPC-H's eight columns.
    2: """
        WITH eur AS (
            SELECT p_partkey, p_mfgr, ps_suppkey, ps_supplycost, s_name,
                   s_acctbal, s_address, s_phone, s_comment, s_nationkey,
                   n_name, n_regionkey
            FROM part
            JOIN partsupp ON ps_partkey = p_partkey
            JOIN supplier ON s_suppkey = ps_suppkey
            JOIN nation ON n_nationkey = s_nationkey
            JOIN region ON r_regionkey = n_regionkey
            WHERE p_size <= 15 AND p_type GLOB '*BRASS'
              AND r_name = 'EUROPE')
        SELECT * FROM eur
        WHERE ps_supplycost = (SELECT min(e2.ps_supplycost) FROM eur e2
                               WHERE e2.p_partkey = eur.p_partkey)
        ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
        LIMIT 100""",
    # Deviation: output column order (orderkey, revenue, date, priority).
    3: f"""
        SELECT o_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
               o_orderdate, o_shippriority
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND {D('o_orderdate')} < '1995-03-15'
          AND {D('l_shipdate')} > '1995-03-15'
        GROUP BY o_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, o_orderdate
        LIMIT 10""",
    4: f"""
        SELECT o_orderpriority, count(*)
        FROM orders
        WHERE {D('o_orderdate')} >= '1993-07-01'
          AND {D('o_orderdate')} < '1993-10-01'
          AND EXISTS (SELECT 1 FROM lineitem
                      WHERE l_orderkey = o_orderkey
                        AND l_commitdate < l_receiptdate)
        GROUP BY o_orderpriority
        ORDER BY o_orderpriority""",
    5: f"""
        SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = 'ASIA'
          AND {D('o_orderdate')} >= '1994-01-01'
          AND {D('o_orderdate')} < '1995-01-01'
        GROUP BY n_name
        ORDER BY revenue DESC""",
    # Deviation: the discount band is the literal [0.05, 0.07], not
    # 0.06 -/+ 0.01 (which rounds to different doubles).
    6: f"""
        SELECT sum(l_extendedprice * l_discount)
        FROM lineitem
        WHERE {D('l_shipdate')} >= '1994-01-01'
          AND {D('l_shipdate')} < '1995-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
        HAVING count(*) > 0""",
    7: f"""
        SELECT n1.n_name, n2.n_name, {YEAR('l_shipdate')} AS l_year,
               sum(l_extendedprice * (1 - l_discount))
        FROM supplier, lineitem, orders, customer, nation n1, nation n2
        WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
          AND c_custkey = o_custkey
          AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
          AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
            OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
          AND {D('l_shipdate')} BETWEEN '1995-01-01' AND '1996-12-31'
        GROUP BY n1.n_name, n2.n_name, l_year
        ORDER BY n1.n_name, n2.n_name, l_year""",
    8: f"""
        SELECT o_year,
               sum(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0.0 END)
               / sum(volume)
        FROM (SELECT {YEAR('o_orderdate')} AS o_year,
                     l_extendedprice * (1 - l_discount) AS volume,
                     n2.n_name AS nation
              FROM part, supplier, lineitem, orders, customer,
                   nation n1, nation n2, region
              WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
                AND l_orderkey = o_orderkey AND o_custkey = c_custkey
                AND c_nationkey = n1.n_nationkey
                AND n1.n_regionkey = r_regionkey AND r_name = 'AMERICA'
                AND s_nationkey = n2.n_nationkey
                AND {D('o_orderdate')} BETWEEN '1995-01-01' AND '1996-12-31'
                AND p_type = 'ECONOMY ANODIZED STEEL')
        GROUP BY o_year
        ORDER BY o_year""",
    9: f"""
        SELECT nation, o_year, sum(amount)
        FROM (SELECT n_name AS nation, {YEAR('o_orderdate')} AS o_year,
                     l_extendedprice * (1 - l_discount)
                     - ps_supplycost * l_quantity AS amount
              FROM part, supplier, lineitem, partsupp, orders, nation
              WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
                AND ps_partkey = l_partkey AND p_partkey = l_partkey
                AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
                AND instr(p_name, 'green') > 0)
        GROUP BY nation, o_year
        ORDER BY nation, o_year DESC""",
    # Deviation: no c_comment; output order custkey, name, acctbal,
    # phone, address, nation, revenue.
    10: f"""
        SELECT c_custkey, c_name, c_acctbal, c_phone, c_address, n_name,
               sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND {D('o_orderdate')} >= '1993-10-01'
          AND {D('o_orderdate')} < '1994-01-01'
          AND l_returnflag = 'R' AND c_nationkey = n_nationkey
        GROUP BY c_custkey, c_name, c_acctbal, c_phone, c_address, n_name
        ORDER BY revenue DESC
        LIMIT 20""",
    # Deviation: the threshold fraction is a fixed 0.001 (TPC-H:
    # 0.0001 / SF), so mini scale factors still select a few parts.
    11: """
        WITH german AS (
            SELECT ps_partkey, ps_supplycost * ps_availqty AS v
            FROM partsupp, supplier, nation
            WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
              AND n_name = 'GERMANY')
        SELECT ps_partkey, sum(v) AS total
        FROM german
        GROUP BY ps_partkey
        HAVING sum(v) > (SELECT sum(v) FROM german) * 0.001
        ORDER BY total DESC""",
    12: f"""
        SELECT l_shipmode,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END),
               sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END)
        FROM orders, lineitem
        WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
          AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
          AND {D('l_receiptdate')} >= '1994-01-01'
          AND {D('l_receiptdate')} < '1995-01-01'
        GROUP BY l_shipmode
        ORDER BY l_shipmode""",
    13: """
        SELECT c_count, count(*) AS custdist
        FROM (SELECT c_custkey, count(o_orderkey) AS c_count
              FROM customer LEFT OUTER JOIN orders
                ON c_custkey = o_custkey
               AND o_comment NOT GLOB '*special*requests*'
              GROUP BY c_custkey)
        GROUP BY c_count
        ORDER BY custdist DESC, c_count DESC""",
    14: f"""
        SELECT 100.0 * sum(CASE WHEN p_type GLOB 'PROMO*'
                                THEN l_extendedprice * (1 - l_discount)
                                ELSE 0.0 END)
               / sum(l_extendedprice * (1 - l_discount))
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND {D('l_shipdate')} >= '1995-09-01'
          AND {D('l_shipdate')} < '1995-10-01'
        HAVING count(*) > 0""",
    # Deviation: a supplier wins within 1e-6 of the maximum revenue
    # (TPC-H: equality).
    15: f"""
        WITH revenue AS (
            SELECT l_suppkey AS supplier_no,
                   sum(l_extendedprice * (1 - l_discount)) AS total_revenue
            FROM lineitem
            WHERE {D('l_shipdate')} >= '1996-01-01'
              AND {D('l_shipdate')} < '1996-04-01'
            GROUP BY l_suppkey)
        SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
        FROM supplier, revenue
        WHERE s_suppkey = supplier_no
          AND total_revenue >= (SELECT max(total_revenue) FROM revenue) - 1e-6
        ORDER BY s_suppkey""",
    # Deviation: complaining suppliers are those whose comment *starts*
    # with 'Customer Complaints' (TPC-H: '%Customer%Complaints%').
    16: """
        SELECT p_brand, p_type, p_size, count(DISTINCT ps_suppkey) AS cnt
        FROM partsupp, part
        WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45'
          AND p_type NOT GLOB 'MEDIUM POLISHED*'
          AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
          AND ps_suppkey NOT IN (
              SELECT s_suppkey FROM supplier
              WHERE s_comment GLOB 'Customer Complaints*')
        GROUP BY p_brand, p_type, p_size
        ORDER BY cnt DESC, p_brand, p_type, p_size""",
    # Deviation: any 'MED*' container (TPC-H: 'MED BOX').
    17: """
        SELECT sum(l_extendedprice) / 7.0
        FROM lineitem, part
        WHERE p_partkey = l_partkey AND p_brand = 'Brand#23'
          AND p_container GLOB 'MED*'
          AND l_quantity < (SELECT 0.2 * avg(l_quantity) FROM lineitem
                            WHERE l_partkey = p_partkey)
        HAVING count(*) > 0""",
    18: """
        SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
               sum(l_quantity)
        FROM customer, orders, lineitem
        WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                             GROUP BY l_orderkey
                             HAVING sum(l_quantity) > 300)
          AND c_custkey = o_custkey AND o_orderkey = l_orderkey
        GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
        ORDER BY o_totalprice DESC, o_orderdate
        LIMIT 100""",
    19: """
        SELECT sum(l_extendedprice * (1 - l_discount))
        FROM lineitem, part
        WHERE p_partkey = l_partkey
          AND l_shipmode IN ('AIR', 'REG AIR')
          AND l_shipinstruct = 'DELIVER IN PERSON'
          AND ((p_brand = 'Brand#12'
                AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
                AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5)
            OR (p_brand = 'Brand#23'
                AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG',
                                    'MED PACK')
                AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
            OR (p_brand = 'Brand#34'
                AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
                AND l_quantity BETWEEN 20 AND 30
                AND p_size BETWEEN 1 AND 15))
        HAVING count(*) > 0""",
    20: f"""
        SELECT s_name, s_address
        FROM supplier, nation
        WHERE s_suppkey IN (
                SELECT ps_suppkey FROM partsupp
                WHERE ps_partkey IN (SELECT p_partkey FROM part
                                     WHERE p_name GLOB 'forest*')
                  AND ps_availqty > (
                      SELECT 0.5 * sum(l_quantity) FROM lineitem
                      WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey
                        AND {D('l_shipdate')} >= '1994-01-01'
                        AND {D('l_shipdate')} < '1995-01-01'))
          AND s_nationkey = n_nationkey AND n_name = 'CANADA'
        ORDER BY s_name""",
    21: """
        SELECT s_name, count(*) AS numwait
        FROM supplier, lineitem l1, orders, nation
        WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey
          AND o_orderstatus = 'F' AND l1.l_receiptdate > l1.l_commitdate
          AND EXISTS (SELECT 1 FROM lineitem l2
                      WHERE l2.l_orderkey = l1.l_orderkey
                        AND l2.l_suppkey <> l1.l_suppkey)
          AND NOT EXISTS (SELECT 1 FROM lineitem l3
                          WHERE l3.l_orderkey = l1.l_orderkey
                            AND l3.l_suppkey <> l1.l_suppkey
                            AND l3.l_receiptdate > l3.l_commitdate)
          AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA'
        GROUP BY s_name
        ORDER BY numwait DESC, s_name
        LIMIT 100""",
    22: """
        SELECT cntrycode, count(*), sum(c_acctbal)
        FROM (SELECT substr(c_phone, 1, 2) AS cntrycode, c_acctbal
              FROM customer
              WHERE substr(c_phone, 1, 2)
                    IN ('13', '31', '23', '29', '30', '18', '17')
                AND c_acctbal > (
                    SELECT avg(c_acctbal) FROM customer
                    WHERE c_acctbal > 0.00
                      AND substr(c_phone, 1, 2)
                          IN ('13', '31', '23', '29', '30', '18', '17'))
                AND NOT EXISTS (SELECT 1 FROM orders
                                WHERE o_custkey = c_custkey))
        GROUP BY cntrycode
        ORDER BY cntrycode""",
}

UNORDERED = {6, 14, 17, 19}
"""Queries without ORDER BY (all four return one aggregate row)."""


@pytest.fixture(scope="module")
def data():
    return generate(scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def db(data):
    database = make_database(
        cache_blocks=512, bufferpool_pages=48, work_mem_rows=400,
        btree_order=64,
    )
    load_tpch(database, data=data)
    return database


@pytest.fixture(scope="module")
def oracle(data):
    conn = sqlite3.connect(":memory:")
    for name, table_schema in TABLE_SCHEMAS.items():
        columns = table_schema.columns
        ddl = ", ".join(f"{c.name} {_SQL_TYPES[c.kind]}" for c in columns)
        conn.execute(f"CREATE TABLE {name} ({ddl})")
        marks = ", ".join("?" * len(columns))
        conn.executemany(
            f"INSERT INTO {name} VALUES ({marks})", data.tables[name]
        )
    for table, column in _INDEXES:
        conn.execute(f"CREATE INDEX {table}_{column} ON {table} ({column})")
    yield conn
    conn.close()


def _same_value(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        return (
            got is not None and want is not None
            and math.isclose(got, want, rel_tol=REL_TOL)
        )
    return got == want


def _same_row(got: tuple, want: tuple) -> bool:
    return len(got) == len(want) and all(map(_same_value, got, want))


def _exact_part(row: tuple) -> list:
    return [v for v in row if not isinstance(v, float)]


def assert_same_rows(got: list, want: list, ordered: bool) -> None:
    assert len(got) == len(want), f"{len(got)} rows, oracle has {len(want)}"
    if not ordered:
        got = sorted(got, key=_exact_part)
        want = sorted(want, key=_exact_part)
    for pos, (g, w) in enumerate(zip(got, want)):
        assert _same_row(g, w), f"row {pos}: engine {g!r}, oracle {w!r}"


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_query_matches_sqlite(db, oracle, qid):
    want = oracle.execute(SQL[qid]).fetchall()
    got = db.run_query(query_builder(qid), label=f"Q{qid}").rows
    assert got, f"Q{qid} returned no rows: the comparison would be vacuous"
    assert_same_rows(got, want, ordered=qid not in UNORDERED)
