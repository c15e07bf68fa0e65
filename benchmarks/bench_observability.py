"""Observability benchmark: bit-identity, closure and latency percentiles
(ISSUE 8).

Three measurements of the telemetry machinery:

* **bit-identity** — the same query sequence on two identical databases,
  one with a full Observer (metrics + tracing) attached, one without;
  rows, the simulated clock, request/block totals and buffer-pool
  counters must match exactly (gate ``obs_identical``, floor 1.0);
* **profile closure** — ``explain_analyze`` over representative
  queries; per-node self-times must sum exactly to each query's
  simulated elapsed seconds (gate ``profile_closure``, floor 1.0);
* **latency percentiles** — exact p50/p95/p99 per QoS class (the
  ``priority`` label on ``io_dispatch_seconds``) plus device and query
  latency histograms, recorded in the payload's ``latency`` block, which
  ``benchmarks/check_trajectory.py`` schema-validates.

Results go to results/observability.{txt,json}; full-fidelity runs also
refresh the repo-root ``BENCH_PR8.json`` trajectory artifact.
"""

from __future__ import annotations

from conftest import (
    BENCH_SCALE,
    envelope,
    publish,
    publish_envelope,
    write_trajectory,
)

from repro.harness.configs import StorageConfig, build_database
from repro.harness.report import format_table
from repro.obs import Observer
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder, query_label
from repro.tpch.streams import POWER_ORDER
from repro.tpch.workload import load_tpch

OBS_SCALE = max(0.02, round(0.1 * BENCH_SCALE, 3))
BENCH_QUERIES = (
    tuple(POWER_ORDER) if BENCH_SCALE >= 1.0 else (1, 3, 6, 14)
)
CLOSURE_QUERIES = (1, 3, 6)
SEED = 7


def _build(data, observer=None):
    db = build_database(
        StorageConfig(kind="hstorage", bufferpool_pages=32, observer=observer)
    )
    load_tpch(db, data=data)
    db.reset_measurements()
    if observer is not None:
        observer.reset()
    return db


def _run_arm(data, observer):
    """One query sequence; returns the per-query identity fingerprint."""
    db = _build(data, observer)
    snaps = []
    for qid in BENCH_QUERIES:
        result = db.run_query(query_builder(qid), label=query_label(qid))
        overall = db.storage.stats.overall
        snaps.append(
            {
                "query": query_label(qid),
                "rows": len(result.rows),
                "sim_seconds": result.sim_seconds,
                "clock_now": db.clock.now,
                "requests": overall.total.requests,
                "blocks": overall.total.blocks,
                "pool_hits": db.pool.hits,
                "pool_misses": db.pool.misses,
            }
        )
    if observer is not None:
        db.storage_manager.recovery_summary()  # publish recovery gauges
    return snaps


def _identity(data) -> dict:
    observer = Observer()
    off = _run_arm(data, None)
    on = _run_arm(data, observer)
    return {
        "queries": len(BENCH_QUERIES),
        "matched": sum(1 for a, b in zip(off, on) if a == b),
        "snapshots": on,
        "telemetry": observer.telemetry()["metrics"],
    }


def _closure(data) -> dict:
    """Max |Σ node self-time − sim elapsed| across the closure queries."""
    entries = []
    worst = 0.0
    db = _build(data)
    for qid in CLOSURE_QUERIES:
        profile = db.explain_analyze(
            query_builder(qid), label=query_label(qid)
        )
        residual = abs(profile.total_self_seconds() - profile.sim_seconds)
        worst = max(worst, residual)
        entries.append(
            {
                "query": profile.label,
                "sim_seconds": profile.sim_seconds,
                "residual_seconds": residual,
                "nodes": sum(1 for _ in profile.root.walk()),
            }
        )
    return {"entries": entries, "worst_residual_seconds": worst}


def _latency(metrics_snapshot: dict) -> dict:
    """The percentile block: every collected latency histogram summary."""
    return dict(metrics_snapshot["histograms"])


def test_observability(benchmark):
    data = generate(OBS_SCALE, seed=SEED)

    def experiment():
        return {"identity": _identity(data), "closure": _closure(data)}

    outcome = benchmark.pedantic(experiment, rounds=1, iterations=1)
    identity = outcome["identity"]
    closure = outcome["closure"]
    latency = _latency(identity["telemetry"])

    qos_rows = [
        [key, s["count"], f"{s['p50'] * 1e3:.3f}", f"{s['p95'] * 1e3:.3f}",
         f"{s['p99'] * 1e3:.3f}"]
        for key, s in sorted(latency.items())
        if key.startswith("io_dispatch_seconds")
    ]
    publish(
        "observability",
        format_table(
            ["histogram", "count", "p50 ms", "p95 ms", "p99 ms"],
            qos_rows,
            "I/O dispatch latency per QoS class "
            f"(identity {identity['matched']}/{identity['queries']}, "
            f"worst closure residual "
            f"{closure['worst_residual_seconds']:.2e}s)",
        ),
    )

    gates = {
        "obs_identical": (
            identity["matched"] / identity["queries"], 1.0
        ),
        "profile_closure": (
            1.0 if closure["worst_residual_seconds"] < 1e-9 else 0.0, 1.0
        ),
    }
    payload = {
        "scale": OBS_SCALE,
        "queries": [query_label(qid) for qid in BENCH_QUERIES],
        "identity": {
            "queries": identity["queries"],
            "matched": identity["matched"],
            "snapshots": identity["snapshots"],
        },
        "closure": closure,
        "latency": latency,
    }
    env = envelope("observability", pr=8, payload=payload, gates=gates)
    publish_envelope(env)
    write_trajectory(env)

    assert identity["matched"] == identity["queries"]
    assert closure["worst_residual_seconds"] < 1e-9
    # At least one QoS class collected real latency samples.
    assert qos_rows and all(int(row[1]) > 0 for row in qos_rows)
