#!/usr/bin/env python3
"""Quickstart: load a mini TPC-H database under hStorage-DB and run Q9,
then demonstrate transactions, the write-ahead log, crash recovery,
concurrency control and deterministic fault injection.

Shows the full pipeline of the paper: the query plan with its effective
levels, the priorities Rule 2 assigns, the cache statistics the
priority-managed SSD cache produces — and the log-class traffic that the
policy table maps to the write-buffer policy (Table 3), exercised by a
begin/commit/crash/recover round trip.

Run:  python examples/quickstart.py
"""

from repro.core.levels import compute_effective_levels
from repro.core.semantics import ContentType, SemanticInfo
from repro.db.tuples import schema
from repro.db.txn import InterleavedScheduler, recover, simulate_crash
from repro.harness.configs import build_database, hstorage_config
from repro.storage.requests import RequestType
from repro.tpch.queries import build_query
from repro.tpch.workload import load_tpch


def main() -> None:
    # A hybrid storage system: priority-managed SSD cache over an HDD.
    config = hstorage_config(
        cache_blocks=1024, bufferpool_pages=96, work_mem_rows=800
    )
    db = build_database(config)
    meta = load_tpch(db, scale=0.3)
    print(f"Loaded TPC-H at scale {meta.scale}: {meta.counts}")
    print(f"Database size: {db.database_pages()} pages of 8 KiB\n")

    plan = build_query(db, 9)
    levels = compute_effective_levels(plan)
    print("Q9 plan (with effective levels):")
    print(plan.explain(levels=levels))

    result = db.run_query(plan, label="Q9")
    print(f"\nQ9 -> {result.row_count} rows "
          f"in {result.sim_seconds:.3f} simulated seconds")
    print(f"first rows: {result.rows[:3]}")

    print("\nI/O classification (the paper's Figure 4 view):")
    for rtype in RequestType:
        counts = result.stats.by_type.get(rtype)
        if counts and counts.requests:
            print(
                f"  {rtype.value:12s} requests={counts.requests:6d} "
                f"blocks={counts.blocks:7d} hits={counts.cache_hits:7d}"
            )

    print("\nPer-priority cache statistics (the paper's Table 5 view):")
    for priority, counts in sorted(result.stats.by_priority.items()):
        print(
            f"  priority {priority}: blocks={counts.blocks:7d} "
            f"hits={counts.cache_hits:7d} ({counts.hit_ratio:.0%})"
        )

    txn_demo()


def txn_demo() -> None:
    """Begin/commit/crash/recover on a small accounts table."""
    print("\n--- Transactions, WAL and crash recovery (DESIGN.md §8) ---")
    db = build_database(hstorage_config(cache_blocks=256, bufferpool_pages=16))
    accounts = db.create_table(
        "accounts", schema(("id", "int"), ("balance", "int"))
    )
    accounts.heap.bulk_load((i, 100) for i in range(10))
    db.enable_wal()  # baseline checkpoint; mutations below are logged
    sem = SemanticInfo.update(ContentType.TABLE, accounts.oid)

    with db.begin() as txn:  # committed: survives the crash
        accounts.heap.update(db.pool, (0, 0), (0, 58), sem, txn=txn)
        accounts.heap.update(db.pool, (0, 1), (1, 142), sem, txn=txn)
    print(f"committed transfer of 42 (txn {txn.txid}); log forced at commit")

    loser = db.begin()  # in flight at the crash: must roll back
    accounts.heap.update(db.pool, (0, 2), (2, 0), sem, loser)
    db.txn_manager.wal.flush()  # log buffer reaches disk ... then power-off
    print(f"transaction {loser.txid} still open ... pulling the plug")

    simulate_crash(db)
    report = recover(db)
    print(
        f"recovered: {report.log_records_scanned} log records scanned, "
        f"{report.redo_applied} redone, {report.undo_applied} undone, "
        f"losers={sorted(report.losers)}"
    )
    rows = dict(
        r for _, r in accounts.heap.scan(
            db.pool, SemanticInfo.table_scan(accounts.oid)
        )
    )
    print(f"balances after recovery: 0 -> {rows[0]}, 1 -> {rows[1]}, "
          f"2 -> {rows[2]} (loser undone)")
    assert (rows[0], rows[1], rows[2]) == (58, 142, 100)

    log = db.storage.stats.overall.by_type[RequestType.LOG]
    print(
        f"log-class I/O (write-buffer QoS, Table 3): "
        f"{log.requests} requests, {log.blocks} blocks"
    )

    concurrency_demo()


def concurrency_demo() -> None:
    """Two conflicting transactions under the interleaved scheduler:
    opposite lock orders close a waits-for cycle, the youngest is
    victimised, rolled back through CLRs, and retried (DESIGN.md §10)."""
    print("\n--- Concurrency control: locks, MVCC, deadlock (DESIGN.md §10) ---")
    db = build_database(hstorage_config(cache_blocks=256, bufferpool_pages=16))
    accounts = db.create_table(
        "accounts", schema(("id", "int"), ("balance", "int"))
    )
    accounts.heap.bulk_load((i, 100) for i in range(4))
    db.enable_wal()
    sched = InterleavedScheduler(db, seed=7)

    def transfer(src, dst, amount, name):
        from repro.db.txn import DeadlockError

        def body(ctx):
            while True:
                ctx.begin()
                try:
                    yield from ctx.lock_row(accounts, (0, src))
                    yield  # interleave point: the other task locks now
                    yield from ctx.lock_row(accounts, (0, dst))
                    a = ctx.fetch(accounts, (0, src))
                    b = ctx.fetch(accounts, (0, dst))
                    ctx.update(accounts, (0, src), (src, a[1] - amount))
                    ctx.update(accounts, (0, dst), (dst, b[1] + amount))
                    ctx.commit()
                    print(f"  {name}: committed {amount} ({src} -> {dst})")
                    return
                except DeadlockError:
                    print(f"  {name}: deadlock victim, rolled back; retrying")
                    ctx.abort()
                    yield

        return body

    sched.spawn(transfer(0, 1, 42, "t1"), "t1")
    sched.spawn(transfer(1, 0, 7, "t2"), "t2")  # opposite order: deadlock
    # A snapshot reader sees one consistent image throughout.
    snap = db.txn_manager.mvcc.take_snapshot()
    sched.run()
    stats = db.txn_manager.locks.stats
    print(
        f"  lock waits={stats.waits} deadlocks={stats.deadlocks} "
        f"victims={stats.victims}"
    )
    fetch = SemanticInfo.random_access(ContentType.TABLE, accounts.oid, 0)
    mvcc = db.txn_manager.mvcc
    old = [
        accounts.heap.fetch_visible(db.pool, (0, i), fetch, snap, mvcc)[1]
        for i in range(2)
    ]
    new = [accounts.heap.fetch(db.pool, (0, i), fetch)[1] for i in range(2)]
    print(f"  snapshot view (pre-transfer): {old}, current: {new}")
    assert old == [100, 100] and sum(new) == 200
    assert stats.deadlocks >= 1

    chaos_demo()


def chaos_demo() -> None:
    """Inject corruption into the storage stack and watch the read path
    and the background scrubber repair it — query results stay golden,
    and whatever cannot be repaired is loud, never silent (DESIGN.md §13)."""
    print("\n--- Fault injection and end-to-end integrity (DESIGN.md §13) ---")
    from repro.harness.chaos import run_chaos

    report = run_chaos(
        profile="corrupt", seed=3, scale=0.02, queries=(1, 3, 6, 14)
    )
    rec = report.recovery
    print(
        f"  injected {report.fault_events} faults "
        f"({report.fault_counters['corrupt']} corruptions): "
        f"{rec['corruptions_detected']} detected, "
        f"{rec['corruptions_repaired']} repaired, "
        f"{rec['unrepairable']} unrepairable"
    )
    s = report.scrubber
    print(
        f"  scrubber: {s['epochs']} epochs, {s['blocks_scrubbed']} blocks "
        f"audited, {s['repairs']} repairs (rides the MIGRATE QoS path)"
    )
    print(
        f"  queries golden-identical: {report.matched}/{len(report.queries)}, "
        f"silent mismatches: {report.silent_mismatches}"
    )
    print(
        f"  trace fingerprint (same seed => same trace): "
        f"{report.trace_fingerprint[:16]}..."
    )
    assert report.verdict and report.silent_mismatches == 0

    trace_demo()


def trace_demo() -> None:
    """Deterministic observability: profile Q6, render its span tree and
    the per-QoS-class latency percentiles — all driven by the simulated
    clock, bit-identical run to run (DESIGN.md §14)."""
    print("\n--- Tracing, profiling and latency histograms (DESIGN.md §14) ---")
    from repro.obs import Observer
    from repro.tpch.queries import query_builder

    obs = Observer(enabled=False)  # silent while the database loads
    db = build_database(
        hstorage_config(
            cache_blocks=256, bufferpool_pages=16, observer=obs
        )
    )
    load_tpch(db, scale=0.05)
    db.reset_measurements()
    obs.reset()
    obs.enabled = True  # telemetry covers only the measured window

    profile = db.explain_analyze(query_builder(6), label="Q6")
    print(profile.render())
    print()
    print(obs.tracer.render(max_children=4, max_depth=4))

    print("\n  latency percentiles (exact, from integer-ns log buckets):")
    for key, hist in obs.metrics.histograms():
        s = hist.summary()
        print(
            f"    {key}: n={s['count']} "
            f"p50={s['p50'] * 1e3:.3f}ms p95={s['p95'] * 1e3:.3f}ms "
            f"p99={s['p99'] * 1e3:.3f}ms"
        )

    # The closure invariant: node self-times sum exactly to the query's
    # simulated elapsed time — every simulated second claimed once.
    assert abs(profile.total_self_seconds() - profile.sim_seconds) < 1e-9
    print(
        f"  closure: sum(node self) = {profile.total_self_seconds():.6f}s "
        f"= sim elapsed {profile.sim_seconds:.6f}s"
    )

    serving_demo()


def serving_demo() -> None:
    """Multi-tenant serving: seeded sessions per QoS class pass through
    admission control (token buckets + queue depth), share engine quanta
    by stride-scheduled weight, and report per-class latency percentiles
    — the whole run a pure function of the seed (DESIGN.md §15)."""
    print("\n--- Multi-tenant serving front-end (DESIGN.md §15) ---")
    from repro.serve import ServeConfig, default_tenants, run_serving

    config = ServeConfig(
        seed=7, tenants=default_tenants(sessions=2, ops=4)
    )
    report = run_serving(config, scale=0.02)
    print(f"  elapsed: {report.elapsed_seconds:.4f} simulated seconds")
    for name, cls in sorted(report.classes.items()):
        lat = cls["latency"]
        print(
            f"  {name:12s} weight={cls['weight']:.0f} "
            f"quanta={cls['quanta']:3d} done={cls['ops_completed']:2d} "
            f"deferred={cls['ops_deferred']:2d} "
            f"rejected={cls['ops_rejected']:2d} "
            f"p99={lat['p99'] * 1e3:.3f}ms"
        )

    # Determinism: the same config on a fresh database reproduces the
    # report byte for byte — admission verdicts, percentiles and all.
    replay = run_serving(config, scale=0.02)
    assert replay.to_json() == report.to_json()
    print("  replay with the same seed: byte-identical report")

    monitor_demo()


def monitor_demo() -> None:
    """Time-series monitoring: an epoch sampler scrapes the serving
    metrics into ring-buffer series, SLO trackers reduce each epoch to
    good/bad events, and burn-rate rules watch the error budget — the
    whole telemetry timeline replayable byte for byte (DESIGN.md §16)."""
    print("\n--- Time-series telemetry and SLO monitoring (DESIGN.md §16) ---")
    from repro.obs.alerts import default_monitor_spec
    from repro.obs.export import dashboard_json
    from repro.serve import ServeConfig, build_frontend, default_tenants

    def run():
        config = ServeConfig(
            seed=7,
            tenants=default_tenants(sessions=2, ops=4),
            monitor=default_monitor_spec(),
        )
        frontend = build_frontend(config, scale=0.02)
        frontend.run()
        return frontend

    frontend = run()
    monitor = frontend.monitor
    print(
        f"  sampled {monitor.sampler.samples_taken} epochs "
        f"({monitor.spec.interval_seconds * 1e3:.0f} ms each) into "
        f"{len(monitor.sampler.series_names())} series"
    )
    for name, tracker in sorted(monitor.trackers.items()):
        print(
            f"  SLO {name}: compliance={tracker.compliance():.4f} "
            f"(good={tracker.total_good} bad={tracker.total_bad})"
        )
    print(f"  alert transitions: {len(monitor.log.events)}")

    # Same-seed replay: the dashboard export — every series sample,
    # SLO window and alert transition — is byte-identical.
    dash = dashboard_json(monitor, governor=frontend.governor)
    replay = run()
    assert dashboard_json(replay.monitor, governor=replay.governor) == dash
    print(
        f"  replay with the same seed: byte-identical dashboard "
        f"({len(dash)} bytes)"
    )


if __name__ == "__main__":
    main()
