"""The six fixed workloads, each driven through the repo's public entry points.

Every workload is a closed loop in one process and one thread: the
simulator is cooperative, so "sessions" and "streams" are simulated
clients, not host threads.  A workload splits one repetition into

* ``prepare()`` — generate the inputs (set-up, untimed);
* ``fresh(inputs)`` — build, load and warm a fresh database (set-up);
* ``run(state, collect)`` — the timed region; returns an ``Outcome``.

**What the seed drives.**  The TPC-H population of a scale factor is fixed
(generator seed ``DATA_SEED``), as ``dbgen``'s is; ``--seed`` plays
``qgen``'s and the clients' part: the order in which every stream submits
its 22 queries, the session arrival / think / lookup streams, the OLTP key
streams and the interleave scheduler.  Seeding the population as well was
measured and dropped: at these scales one seed's hash build spills where
another's fits, so host time moved 13 % between seeds on ``throughput3``
with the code unchanged — wider than the regression bound it must resolve.

``Outcome.groups`` is the per-operation part of the simulated fingerprint
(``[label, ops, value, rows]``: a mismatching group fails its ``ops``
operations; ``rows`` is the sha256 of the result rows, or ``""`` when the
repetition did not collect them); ``Outcome.state`` is the repetition-wide
part (a mismatch fails every operation).  Floats are compared by ``repr()``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.harness import mixed
from repro.harness.configs import build_storage
from repro.harness.runner import ExperimentRunner, RunnerSettings
from repro.obs.observer import Observer
from repro.serve.driver import drive_round_robin
from repro.serve.overload import (
    build_overload_db,
    overload_config,
    run_overload,
)
from repro.storage.requests import RequestType
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder, query_label
from repro.tpch.refresh import rf1_builder, rf2_builder

DATA_SEED = 42
"""Generator seed of every TPC-H population (see the module docstring)."""

QUICK_DIVISOR = 5
"""``--quick`` divides every scale and count by this."""


def _query_order(rng: random.Random) -> list[int]:
    """One stream's submission order: a seeded permutation of Q1..Q22."""
    order = list(range(1, 23))
    rng.shuffle(order)
    return order


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one repetition produced, reduced to exact simulated values."""

    ops: int
    sim_s: float
    groups: list[list]
    state: dict
    counts: dict[str, float] = field(default_factory=dict)
    """Public counters behind the per-layer count metrics."""
    query_host_ms: dict[str, float] = field(default_factory=dict)

    def fingerprint(self) -> dict:
        return {"groups": self.groups, "state": self.state}


# ---------------------------------------------------------------- counters


def _storage_state(storage) -> dict:
    stats = storage.stats.overall
    return {
        "clock.now": repr(storage.clock.now),
        "clock.background": repr(storage.clock.background),
        "stats": {
            rtype.value: [c.requests, c.blocks, c.cache_hits]
            for rtype, c in sorted(
                stats.by_type.items(), key=lambda item: item[0].value
            )
            if c.requests or c.blocks
        },
        "scheduler": [
            storage.scheduler.dispatches,
            storage.scheduler.blocks_dispatched,
        ],
    }


def _txn_counters(db) -> dict[str, int]:
    mgr = db.txn_manager
    if mgr is None:
        return {}
    return {
        "commits": mgr.commits,
        "aborts": mgr.aborts,
        "checkpoints": mgr.checkpoints,
        "wal_flushes": mgr.wal.flushes,
        "wal_records": len(mgr.wal.records),
        "lock_waits": mgr.locks.stats.waits,
        "deadlocks": mgr.locks.stats.deadlocks,
        "snapshot_reads": mgr.mvcc.snapshot_reads,
    }


def _db_state(db) -> dict:
    state = _storage_state(db.storage)
    state["pool"] = [db.pool.hits, db.pool.misses, db.pool.evictions]
    txn = _txn_counters(db)
    if txn:
        state["txn"] = txn
    return state


def _storage_counts(storages) -> dict[str, float]:
    """Sum the public storage-stack counters over one or more stacks."""
    counts: dict[str, float] = {
        f"storage.device.{name}.blocks": 0 for name in ("hdd", "ssd", "nvme")
    }
    by_type = {rtype: 0 for rtype in RequestType}
    requests = blocks = hits = misses = flushes = 0
    dispatches = dispatched = merged = drains = 0
    for storage in storages:
        overall = storage.stats.overall
        for rtype, c in overall.by_type.items():
            by_type[rtype] += c.requests
            requests += c.requests
            blocks += c.blocks
            hits += c.cache_hits
            misses += c.cache_misses
        scheduler = storage.scheduler
        dispatches += scheduler.dispatches
        dispatched += scheduler.blocks_dispatched
        merged += scheduler.requests_merged
        drains += scheduler.writeback_drains
        for tier in storage.backend.tiers:
            device = tier.device
            counts[f"storage.device.{device.name}.blocks"] += (
                device.blocks_read + device.blocks_written
            )
            flushes += getattr(tier.cache, "write_buffer_flushes", 0)
    counts.update(
        {
            "storage.scheduler.dispatches": dispatches,
            "storage.scheduler.blocks_dispatched": dispatched,
            "storage.scheduler.requests_merged": merged,
            "storage.scheduler.writeback_drains": drains,
            "storage.cache.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "storage.cache.write_buffer_flushes": flushes,
            "storage.stats.requests": requests,
            "storage.stats.blocks": blocks,
            "storage.stats.requests.sequential": by_type[
                RequestType.SEQUENTIAL
            ],
            "storage.stats.requests.random": by_type[RequestType.RANDOM],
            "storage.stats.requests.temp": by_type[RequestType.TEMP_READ]
            + by_type[RequestType.TEMP_WRITE],
            "storage.stats.requests.update": by_type[RequestType.UPDATE],
            "storage.stats.requests.log": by_type[RequestType.LOG],
            "storage.stats.requests.trim": by_type[RequestType.TRIM_TEMP],
        }
    )
    return counts


def _db_counts(db) -> dict[str, float]:
    counts = _storage_counts([db.storage])
    pool = db.pool
    accesses = pool.hits + pool.misses
    counts.update(
        {
            "db.temp.files_created": db.temp.created,
            "db.bufferpool.hits": pool.hits,
            "db.bufferpool.misses": pool.misses,
            "db.bufferpool.evictions": pool.evictions,
            "db.bufferpool.hit_ratio": (
                pool.hits / accesses if accesses else 0.0
            ),
        }
    )
    for name, value in _txn_counters(db).items():
        counts[f"db.txn.{name}"] = value
    return counts


def _query_groups(results, collect: bool, prefix: str = "") -> list[list]:
    return [
        [
            f"{prefix}{index}:{result.label}",
            1,
            repr(result.sim_seconds),
            _sha(repr(result.rows)) if collect else "",
        ]
        for index, result in enumerate(results)
    ]


# --------------------------------------------------------------- workloads


class Workload:
    """Shared set-up bookkeeping: which part of set-up took how long."""

    def __init__(self) -> None:
        self.setup_parts = {"generate_s": 0.0, "load_s": 0.0}
        """Host seconds the latest ``prepare``/``fresh`` spent generating
        data and building + loading (+ warming) — the ``tpch.generate_s``
        and ``tpch.load_s`` metrics."""

    @contextmanager
    def _setup_part(self, part: str):
        begin = time.perf_counter()
        try:
            yield
        finally:
            self.setup_parts[part] = time.perf_counter() - begin


class Power22(Workload):
    """§6.3.4 / Table 8: RF1, the 22 queries, RF2 on hStorage-DB, the
    queries in a seeded order.

    Scale 1.0 is 2 834 pages against a 4.5 % pool and a 70 % SSD cache:
    the working set exceeds both.
    """

    name = "power22"
    observed = False

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__()
        self.order = _query_order(random.Random(seed))
        self.scale = 1.0 / QUICK_DIVISOR if quick else 1.0

    def prepare(self):
        runner = ExperimentRunner(
            RunnerSettings(scale=self.scale, seed=DATA_SEED)
        )
        with self._setup_part("generate_s"):
            runner.data(self.scale)
        return runner

    def fresh(self, runner):
        observer = Observer(tracing=True) if self.observed else None
        with self._setup_part("load_s"):
            db, meta = runner.fresh_database("hstorage", observer=observer)
        if observer is not None:
            observer.reset()  # telemetry covers the measured window only
        return db, meta

    def run(self, state, collect: bool) -> Outcome:
        db, meta = state
        work = [
            ("RF1", rf1_builder(meta)),
            *((query_label(q), query_builder(q)) for q in self.order),
            ("RF2", rf2_builder(meta)),
        ]
        results = []
        host_ms = {}
        clock = time.perf_counter
        for label, builder in work:
            begin = clock()
            results.append(db.run_query(builder, label=label, collect=collect))
            host_ms[label] = (clock() - begin) * 1e3
        outcome = Outcome(
            ops=len(results),
            sim_s=db.clock.now,
            groups=_query_groups(results, collect),
            state=_db_state(db),
            counts=_db_counts(db),
            query_host_ms=host_ms,
        )
        observer = db.observer
        if observer is not None and collect:
            # Serialising ~65k spans is slow: the warm-up repetition alone
            # pins the telemetry bytes and reads the span count.
            telemetry = observer.telemetry()
            outcome.state["telemetry"] = _sha(
                json.dumps(telemetry, sort_keys=True)
            )
            outcome.counts["obs.spans_recorded"] = telemetry["trace"]["spans"]
        return outcome


class Power22Obs(Power22):
    """``power22`` with ``Observer(tracing=True)`` attached, reset after
    load: the only workload where ``obs`` does a large share of the work."""

    name = "power22_obs"
    observed = True


class Throughput3(Workload):
    """§6.4 / Table 9: three query streams plus one RF1/RF2 update stream,
    quantum-interleaved at 64, pool 12.5 %, cache 25 % (small enough to
    evict)."""

    name = "throughput3"
    quantum = 64

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__()
        rng = random.Random(seed)
        self.orders = [_query_order(rng) for _ in range(3)]
        base = 1.0 / QUICK_DIVISOR if quick else 1.0
        self.settings = RunnerSettings(scale=base, seed=DATA_SEED)
        self.scale = base * self.settings.throughput_scale_factor

    def prepare(self):
        runner = ExperimentRunner(self.settings)
        with self._setup_part("generate_s"):
            runner.data(self.scale)
        return runner

    def fresh(self, runner):
        with self._setup_part("load_s"):
            return runner.fresh_database(
                "hstorage", scale=self.scale, throughput=True
            )

    def streams(self, meta):
        streams = [
            [(query_label(q), query_builder(q)) for q in order]
            for order in self.orders
        ]
        # The update stream: one RF1/RF2 pair per query stream (TPC-H).
        streams.append(
            [("RF1", rf1_builder(meta)), ("RF2", rf2_builder(meta))] * 3
        )
        return streams

    def run(self, state, collect: bool) -> Outcome:
        db, meta = state
        if collect:
            # drive_round_robin never collects rows; the warm-up does, so
            # the result rows can be fingerprinted.
            start_query = db.start_query
            db.start_query = lambda builder, label, collect: start_query(
                builder, label, collect=True
            )
        per_stream = drive_round_robin(db, self.streams(meta), self.quantum)
        groups = [
            group
            for number, results in enumerate(per_stream)
            for group in _query_groups(results, collect, f"s{number}:")
        ]
        return Outcome(
            ops=len(groups),
            sim_s=db.clock.now,
            groups=groups,
            state=_db_state(db),
            counts=_db_counts(db),
        )


class OltpMix(Workload):
    """Four interleaved writer streams (index lookup, X-lock, heap update,
    WAL-forced commit, checkpoint every 25) beside snapshot Q1/Q6 and an
    orders scan.  7 500 orders far exceed the 4 writers, so lock waits stay
    incidental.  ``run_mixed_oltp_olap`` builds and loads its own database
    (about 2 % of the call), so that constant stays inside the timed region.
    """

    name = "oltp_mix"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__()
        self.seed = seed
        self.scale = 0.5 / QUICK_DIVISOR if quick else 0.5
        self.n_txns = 4000 // QUICK_DIVISOR if quick else 4000

    def prepare(self):
        with self._setup_part("generate_s"):
            return generate(scale=self.scale, seed=DATA_SEED)

    def fresh(self, data):
        return data

    def run(self, data, collect: bool) -> Outcome:
        # The entry point keeps its database to itself; capture it on the
        # way out of build_database so its public counters can be read.
        built = []
        build_database = mixed.build_database

        def capture(config):
            db = build_database(config)
            if collect:
                run_concurrent = db.run_concurrent
                db.run_concurrent = lambda workloads, quantum: run_concurrent(
                    workloads, quantum, collect=True
                )
            built.append(db)
            return db

        mixed.build_database = capture
        try:
            result = mixed.run_mixed_oltp_olap(
                scale=self.scale,
                n_txns=self.n_txns,
                oltp_streams=4,
                scheduler_seed=self.seed,
                data=data,
                seed=self.seed,
            )
        finally:
            mixed.build_database = build_database
        (db,) = built
        groups = _query_groups(
            [*result.olap_results, result.oltp_result], collect
        )
        groups[-1][1] = result.commits
        return Outcome(
            ops=self.n_txns + len(result.olap_results),
            sim_s=result.elapsed_seconds,
            groups=groups,
            state=_db_state(db),
            counts=_db_counts(db),
        )


class ServeOverload(Workload):
    """1000 sessions x 12 ops against a database that fits in cache (72
    pages in a 128-page pool and a 2 048-block cache, pre-warmed), governor
    off.  A rejected or deferred admission is a simulated outcome, not a
    failure."""

    name = "serve_overload"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__()
        self.seed = seed
        self.sessions = 1000 // QUICK_DIVISOR if quick else 1000
        self.ops_per_session = 12

    def prepare(self):
        return None

    def fresh(self, _):
        # One public call generates, loads and warms; it all counts as load.
        with self._setup_part("load_s"):
            return build_overload_db(DATA_SEED)

    def run(self, db, collect: bool) -> Outcome:
        config = overload_config(
            self.seed, self.sessions, self.ops_per_session, governor=False
        )
        result = run_overload(config, db=db)
        report = result.report
        groups = []
        admission = {"admitted": 0, "deferred": 0, "rejected": 0}
        for tenant, entry in report.tenants.items():
            groups.append(
                [
                    tenant,
                    entry["ops_completed"] + entry["ops_rejected"],
                    _sha(json.dumps(entry, sort_keys=True)),
                    "",
                ]
            )
            for verdict in admission:
                admission[verdict] += entry["admission"][verdict]
        state = _db_state(db)
        state["report"] = _sha(report.to_json())
        state["alerts"] = _sha(
            json.dumps(result.monitor["alerts"], sort_keys=True)
        )
        counts = _db_counts(db)
        counts["serve.frontend.quanta"] = sum(
            entry["quanta"] for entry in report.classes.values()
        )
        counts["obs.series"] = len(result.monitor["timeline"]["series"])
        for verdict, count in admission.items():
            counts[f"serve.admission.{verdict}"] = count
        return Outcome(
            ops=sum(group[1] for group in groups),
            sim_s=report.elapsed_seconds,
            groups=groups,
            state=state,
            counts=counts,
        )


class BlockReplay(Workload):
    """The storage system as the paper's iSCSI target sees it: the
    classified request batches and drain positions of one ``throughput3``
    run, replayed into fresh ``hstorage``, ``lru`` and ``tier3`` stacks.
    The DBMS layers do none of the work."""

    name = "blockreplay"
    kinds = ("hstorage", "lru", "tier3")

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__()
        self.source = Throughput3(seed, quick)
        self.setup_parts = self.source.setup_parts  # one shared tally

    def prepare(self):
        """Record one throughput3 run at the storage-system boundary."""
        source = self.source
        runner = source.prepare()
        db, meta = source.fresh(runner)
        trace: list[list | None] = []
        storage = db.storage
        submit_batch, drain = storage.submit_batch, storage.drain

        def recording_submit(requests):
            trace.append([copy.copy(request) for request in requests])
            return submit_batch(requests)

        def recording_drain():
            trace.append(None)
            return drain()

        storage.submit_batch = recording_submit
        storage.drain = recording_drain
        drive_round_robin(db, source.streams(meta), source.quantum)
        configs = [
            runner.config(kind, source.scale, throughput=True)
            for kind in self.kinds
        ]
        return trace, configs

    def fresh(self, inputs):
        trace, configs = inputs
        return [
            (
                build_storage(config)[0],
                [
                    None
                    if batch is None
                    else [copy.copy(request) for request in batch]
                    for batch in trace
                ],
            )
            for config in configs
        ]

    def run(self, stacks, collect: bool) -> Outcome:
        groups = []
        for kind, (storage, trace) in zip(self.kinds, stacks):
            batches = 0
            for batch in trace:
                if batch is None:
                    storage.drain()
                else:
                    storage.submit_batch(batch)
                    batches += 1
            storage.drain()
            state = _storage_state(storage)
            groups.append(
                [kind, batches, _sha(json.dumps(state, sort_keys=True)), ""]
            )
        storages = [storage for storage, _ in stacks]
        return Outcome(
            ops=sum(group[1] for group in groups),
            sim_s=sum(storage.clock.now for storage in storages),
            groups=groups,
            state={},
            counts=_storage_counts(storages),
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        Power22, Power22Obs, Throughput3, OltpMix, ServeOverload, BlockReplay
    )
}
