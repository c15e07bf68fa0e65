"""Real wall-clock benchmark: row vs vectorized execution.

Unlike every other benchmark in this directory, the numbers here are
*host* seconds, not simulated seconds: the vectorized engine (ISSUE 2)
changes only how fast the simulation itself runs.  Two measurements:

* a sequential-scan microbenchmark (the paper's Rule-1 traffic shape) —
  acceptance-gated at **>= 6x** for the vectorized engine (ratcheted
  from the original 3x);
* Q1/Q3/Q6 TPC-H plans at two scale factors, reported per executor.

Both paths run the identical simulated workload — the differential
tests (tests/test_vectorized_diff.py) prove the simulated clock, request
order and result rows match bit-for-bit; this benchmark only times them.

CLI axes (see conftest): ``--executor {row,vectorized}`` restricts
the comparison to one mode (exploratory; the gate needs both and is
skipped), and ``--profile`` wraps each measured run in ``cProfile`` and
adds the top-20 cumulative hotspots to the JSON artifact (profiler
overhead pollutes the timings, so gates are skipped then too).

Results go to results/wallclock_exec.{txt,json}; full-fidelity runs also
write the repo-root ``BENCH_PR6.json`` trajectory artifact, which
``benchmarks/check_trajectory.py`` re-validates in CI.
``REPRO_BENCH_SCALE`` shrinks the dataset for CI smoke runs.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import time

from conftest import (
    BENCH_SCALE,
    envelope,
    publish,
    publish_envelope,
    write_trajectory,
)

from repro.db.executor import SeqScan
from repro.db.tuples import schema
from repro.harness.configs import build_database, hstorage_config
from repro.harness.report import format_table
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder
from repro.tpch.workload import load_tpch

EXECUTORS = ("row", "vectorized")

SCAN_ROWS = max(20_000, int(80_000 * BENCH_SCALE))
TPCH_SCALES = {"small": 0.08 * BENCH_SCALE, "medium": 0.25 * BENCH_SCALE}
TPCH_QUERIES = (1, 3, 6)

MIN_SCAN_SPEEDUP_VEC = 6.0  # ratcheted from the original 3x (ISSUE 6)
REPEATS = 3


def _scan_db(executor: str):
    # The pool is sized to hold the whole table: after the first (cold)
    # repetition the best-of-REPEATS measurement is pure executor cost.
    # With a smaller pool every repetition re-runs the storage-simulation
    # fault path, which is bit-identical across executors and would cap
    # the measurable ratio at shared-cost parity instead of exposing the
    # per-row vs per-batch difference this micro exists to track.
    db = build_database(
        hstorage_config(
            cache_blocks=4096,
            bufferpool_pages=max(512, SCAN_ROWS // 32),
            vectorized=executor == "vectorized",
        )
    )
    rel = db.create_table("t", schema(("k", "int"), ("pad", "str", 16)))
    rel.heap.bulk_load((i, "x" * 16) for i in range(SCAN_ROWS))
    db.reset_measurements()
    return db


def _tpch_db(executor: str, data):
    db = build_database(
        hstorage_config(
            cache_blocks=4096,
            bufferpool_pages=1024,
            work_mem_rows=5000,
            vectorized=executor == "vectorized",
        )
    )
    load_tpch(db, data=data)
    db.reset_measurements()
    return db


class _Profiler:
    """Optional cProfile wrapper collecting top-20 cumulative hotspots."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.hotspots: dict[str, list] = {}

    def run(self, label: str, fn):
        if not self.enabled:
            return fn()
        profile = cProfile.Profile()
        outcome = profile.runcall(fn)
        stats = pstats.Stats(profile)
        stats.sort_stats("cumulative")
        top = []
        for func in stats.fcn_list[:20]:  # (file, line, name), sorted
            cc, nc, tt, ct, _ = stats.stats[func]
            filename, line, name = func
            top.append(
                {
                    "function": f"{filename}:{line}({name})",
                    "ncalls": nc,
                    "tottime": round(tt, 6),
                    "cumtime": round(ct, 6),
                }
            )
        self.hotspots[label] = top
        return outcome


def _time_query(db, plan_or_builder, label, profiler):
    """Best-of-REPEATS host seconds for one query execution.

    The cyclic collector stays *enabled* — allocation-proportional GC
    cost is part of what each executor is charged for, and the recorded
    speedups have always been measured in that regime.  It is drained
    right before the timed region, though: by the time the TPC-H stage
    runs, the process carries a large long-lived heap from earlier
    stages, and a full generation-2 pass landing inside one timed run
    skews millisecond-scale ratios by several milliseconds.
    """
    best = float("inf")
    result = None

    def once():
        return db.run_query(plan_or_builder, label=label, collect=False)

    gc.collect()
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = profiler.run(label, once)
        best = min(best, time.perf_counter() - start)
    return best, result


def _bench_scan(executors, profiler) -> dict:
    seconds = {}
    sim = {}
    for executor in executors:
        db = _scan_db(executor)
        plan_builder = lambda d: SeqScan(d.catalog.relation("t"))  # noqa: E731
        secs, result = _time_query(
            db, plan_builder, f"seqscan-{executor}", profiler
        )
        seconds[executor] = secs
        sim[executor] = result.sim_seconds
    return {
        "rows": SCAN_ROWS,
        "seconds": seconds,
        "sim_seconds": sim,
        "speedup": {
            executor: seconds["row"] / seconds[executor]
            for executor in executors
            if executor != "row" and "row" in seconds
        },
    }


def _bench_tpch(executors, profiler) -> list[dict]:
    entries = []
    for sf_name, sf in TPCH_SCALES.items():
        data = generate(scale=sf, seed=42)
        for executor in executors:
            db = _tpch_db(executor, data)
            for qid in TPCH_QUERIES:
                secs, _ = _time_query(
                    db,
                    query_builder(qid),
                    f"Q{qid}-{sf_name}-{executor}",
                    profiler,
                )
                entries.append(
                    {
                        "sf": sf_name,
                        "query": f"Q{qid}",
                        "executor": executor,
                        "seconds": secs,
                    }
                )
    return entries


def test_wallclock_exec(benchmark, bench_options):
    only = bench_options["executor"]
    executors = (only,) if only else EXECUTORS
    profiler = _Profiler(bench_options["profile"])
    full_comparison = only is None

    def experiment():
        payload = {
            "scan": _bench_scan(executors, profiler),
            "tpch": _bench_tpch(executors, profiler),
        }
        if profiler.enabled:
            payload["profile"] = profiler.hotspots
        return payload

    outcome = benchmark.pedantic(experiment, rounds=1, iterations=1)
    scan = outcome["scan"]

    def fmt_speedup(executor):
        speedup = scan["speedup"].get(executor)
        return f"{speedup:.1f}x" if speedup is not None else "-"

    table = [
        ["seqscan-micro", f"{scan['rows']} rows", "scan", executor,
         f"{scan['seconds'][executor] * 1e3:.1f}", fmt_speedup(executor)]
        for executor in executors
    ] + [
        [entry["query"], entry["sf"], entry["query"], entry["executor"],
         f"{entry['seconds'] * 1e3:.1f}", "-"]
        for entry in outcome["tpch"]
    ]
    publish(
        "wallclock_exec",
        format_table(
            ["workload", "scale", "query", "executor", "ms", "vs row"],
            table,
            "Executor wall clock — row vs vectorized",
        ),
    )

    # The speedup floors are acceptance gates for full-fidelity,
    # unprofiled, both-executor runs only: shrunken smoke runs (CI sets
    # REPRO_BENCH_SCALE < 1) are too noisy to gate on host timing, and
    # cProfile overhead distorts the ratios.  Gate values are recorded
    # in the envelope under the same condition — the trajectory check
    # re-enforces every recorded floor, so noise-dominated numbers must
    # never be written down.  Elsewhere, completing and emitting
    # well-formed JSON suffices.
    gated = BENCH_SCALE >= 1.0 and full_comparison and not profiler.enabled
    gates = {}
    if gated:
        gates["scan_speedup_vectorized"] = (
            scan["speedup"]["vectorized"], MIN_SCAN_SPEEDUP_VEC
        )
    env = envelope("wallclock_exec", pr=6, payload=outcome, gates=gates)
    publish_envelope(env)

    # Both executors simulate the identical world.
    assert len(set(scan["sim_seconds"].values())) == 1

    if gated:
        write_trajectory(env)
        for name, (value, floor) in gates.items():
            assert value >= floor, (
                f"{name} = {value:.2f}x below the {floor}x acceptance floor"
            )
