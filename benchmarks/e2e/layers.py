"""Layer boundaries and the host-time span recorder (measured from outside).

``LAYERS`` is the one table mapping a layer name to the public callables
that form its boundary: ``(owner, names)`` where ``owner`` is
``"module:Class"`` or, for module-level functions, the ``"module"`` whose
namespace the caller resolves the name in.  Layers are named after the
repo's modules.  ``resolve_boundaries`` fails loudly when a listed boundary
no longer exists, so a refactor that deletes ``TierChain.submit`` or an
executor entry point surfaces as "layer boundary moved", never as a
silent zero.

Boundaries are wrapped on the *class* (or module) for the length of one
traced repetition and restored afterwards, because half the instances the
workloads exercise (the serving front-end, its admission controller and
monitor, the transaction manager, every ``QueryExecution``) are built
inside the repo's own entry points where the benchmark cannot reach them
first.  No file under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

_OBSERVER_HOOKS = (
    "on_dispatch", "on_writeback_queue", "on_completion", "on_device_access",
    "on_retry", "on_failover", "on_corruption_detected", "on_repair",
    "on_pool_hits", "on_pool_misses", "on_pool_evictions",
    "on_pool_read_error", "on_wal_append", "on_wal_flush", "on_lock_wait",
    "on_deadlock", "on_query_start", "on_query_finish", "on_admission",
    "on_serve_op", "on_migration_epoch", "on_scrub_epoch",
)

_CACHE_METHODS = ("access_block", "insert_block", "trim")

LAYERS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    # Plan construction (the tpch query builders, the serving op builder)
    # and the one load that sits inside a timed region (oltp_mix).
    "tpch": (
        ("repro.db.engine:Database", ("build_plan",)),
        ("repro.harness.mixed", ("load_tpch",)),
    ),
    # The Database facade: query set-up, registry wiring, result assembly.
    "db.engine": (
        (
            "repro.db.engine:Database",
            ("run_query", "start_query", "run_concurrent"),
        ),
    ),
    # ``step`` pulls the plan's iterator, so its self time is the operator
    # tree: db/executor/*, exprs, columnar, fused, push, heap, btree, temp.
    "db.executor": (("repro.db.engine:QueryExecution", ("step",)),),
    "db.bufferpool": (
        (
            "repro.db.bufferpool:BufferPool",
            (
                "get_page", "get_range", "get_range_batches", "new_page",
                "mark_dirty", "flush_all", "flush_file", "drop_file",
            ),
        ),
    ),
    "db.storage_manager": (
        (
            "repro.db.storage_manager:StorageManager",
            (
                "read_pages", "read_pages_batch", "write_page",
                "write_pages_batch", "trim_file", "evict_scan_file", "drain",
            ),
        ),
    ),
    "core": (("repro.core.assignment:PolicyAssignmentTable", ("assign",)),),
    "db.txn": (
        (
            "repro.db.txn.manager:TransactionManager",
            ("begin", "commit", "abort", "checkpoint"),
        ),
        ("repro.db.txn.wal:WriteAheadLog", ("append", "flush")),
        ("repro.db.txn.locks:LockManager", ("acquire", "release_all")),
    ),
    "storage.system": (
        ("repro.storage.system:StorageSystem", ("submit_batch", "drain")),
    ),
    "storage.scheduler": (
        ("repro.storage.scheduler:IOScheduler", ("submit_batch", "drain")),
    ),
    "storage.tiers": (("repro.storage.tiers:TierChain", ("submit",)),),
    "storage.cache": (
        ("repro.storage.priority_cache:PriorityCache", _CACHE_METHODS),
        ("repro.storage.lru_cache:LRUCache", _CACHE_METHODS),
    ),
    "storage.stats": (
        (
            "repro.storage.stats:StatsCollector",
            ("record", "record_counts", "record_hits"),
        ),
    ),
    "storage.placement": (
        ("repro.storage.placement.migrator:PlacementEngine", ("after_batch",)),
    ),
    "obs": (
        ("repro.obs.observer:Observer", _OBSERVER_HOOKS),
        ("repro.obs.trace:Tracer", ("start_span", "finish_span", "event")),
        ("repro.obs.alerts:Monitor", ("tick",)),
        (
            "repro.obs.metrics:MetricsRegistry",
            ("counter", "gauge", "histogram"),
        ),
    ),
    # ``run`` is the root of a serving repetition: its self time is the
    # session loop minus admission, monitor and step children.
    "serve.frontend": (("repro.serve.frontend:ServingFrontend", ("run",)),),
    "serve.admission": (
        (
            "repro.serve.admission:AdmissionController",
            ("request", "release"),
        ),
    ),
}

BENCH_LAYER = "bench"
"""The timed region itself, opened as the root span of a traced
repetition.  It has no boundary in the repo: its self time is whatever ran
outside every boundary above — the benchmark's own driving loop, the
harness glue of the entry points, and the call overhead of root-level
wrappers.  Folding it in makes the self times close over the region; its
share says how much of the region the table does not explain."""

LAYER_NAMES = (*LAYERS, BENCH_LAYER)

OP_BOUNDARY = ("repro.db.engine:QueryExecution", "step")
"""The boundary that names the operation: spans opened under it carry its
execution's simulated ``query_id`` as op id (0 outside any query — the
serving loop's own work, block replay)."""

CHROME_SPAN_LIMIT = 50_000
"""Spans written to the Chrome trace file (the first N by start time);
all spans stay in memory and count towards the per-layer numbers."""


class LayerBoundaryMoved(RuntimeError):
    """A boundary listed in ``LAYERS`` no longer exists in the repo."""


def resolve_boundaries() -> list[tuple[str, str, object, str, object]]:
    """``(layer, owner path, owner, attribute, callable)`` per boundary."""
    resolved = []
    for layer, owners in LAYERS.items():
        for path, names in owners:
            module_name, _, class_name = path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError) as exc:
                raise LayerBoundaryMoved(
                    f"layer boundary moved: {layer} lists {path}, "
                    f"which no longer exists ({exc})"
                ) from exc
            for name in names:
                fn = inspect.getattr_static(owner, name, None)
                if not inspect.isfunction(fn):
                    raise LayerBoundaryMoved(
                        f"layer boundary moved: {layer} lists "
                        f"{path}.{name}, which is no longer a plain "
                        "function or method there"
                    )
                resolved.append((layer, path, owner, name, fn))
    return resolved


class SpanRecorder:
    """Host-clock spans around every layer boundary, kept in memory.

    A span carries name, start, end, parent and op id; they are stored
    column-wise (one array per field) so a million spans cost tens of
    megabytes, not hundreds.  See ``OP_BOUNDARY`` for the op id.
    """

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.span_layers: list[int] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        self._leave_root = None

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for layer, path, owner, name, fn in resolve_boundaries():
            name_id = len(self.span_names)
            self.span_names.append(f"{owner.__name__.rpartition('.')[2]}.{name}")
            self.span_layers.append(LAYER_NAMES.index(layer))
            if (path, name) == OP_BOUNDARY:
                wrap = self._wrap_op
            elif inspect.isgeneratorfunction(fn):
                wrap = self._wrap_generator
            else:
                wrap = self._wrap
            owned = name in vars(owner)
            self._patched.append((owner, name, vars(owner).get(name), owned))
            setattr(owner, name, wrap(fn, name_id))
        self.span_names.append("timed_region")
        self.span_layers.append(LAYER_NAMES.index(BENCH_LAYER))
        enter, self._leave_root = self._span_hooks(len(self.span_names) - 1)
        enter(time.perf_counter())

    def uninstall(self) -> None:
        """Close the root span and restore every boundary."""
        self._leave_root(0)
        for owner, name, original, owned in reversed(self._patched):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patched.clear()

    def _span_hooks(self, name_id: int):
        """``enter(now) -> span id`` and ``leave(span id)`` for one boundary.

        Wrappers read the clock first on the way in and last on the way
        out, so the recorder's own bookkeeping lands in the span that
        caused it: a layer's tracing cost is proportional to its
        ``calls``.
        """
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.name_ids.append, self.parents.append
        add_op, add_start = self.ops.append, self.starts.append
        add_end, ends = self.ends.append, self.ends
        name_ids = self.name_ids

        def enter(begin: float) -> int:
            sid = len(name_ids)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_op(self.op)
            add_start(begin)
            add_end(0.0)
            push(sid)
            return sid

        def leave(sid: int) -> None:
            pop()
            ends[sid] = clock()

        return enter, leave

    def _wrap(self, fn, name_id: int):
        clock = time.perf_counter
        enter, leave = self._span_hooks(name_id)

        def traced(*args, **kwargs):
            sid = enter(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                leave(sid)

        traced.__wrapped__ = fn
        return traced

    def _wrap_op(self, fn, name_id: int):
        traced_call = self._wrap(fn, name_id)

        def traced(execution, *args, **kwargs):
            outer, self.op = self.op, execution.query_id
            try:
                return traced_call(execution, *args, **kwargs)
            finally:
                self.op = outer

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name_id: int):
        """Time a generator per resumption: one span per ``next()``."""
        clock = time.perf_counter
        enter, leave = self._span_hooks(name_id)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    sid = enter(clock())
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave(sid)
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ analysis

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self seconds and total seconds.

        A span's self time is its duration minus the part its child
        spans cover.  A layer's total counts only its outermost spans,
        so a boundary that re-enters its own layer is not counted twice.
        """
        n = len(self.name_ids)
        above = [0] * n  # bitmask of the layers open at this span
        totals = {
            layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            for layer in LAYER_NAMES
        }
        by_index = [totals[layer] for layer in LAYER_NAMES]
        starts, ends, parents = self.starts, self.ends, self.parents
        layers = [self.span_layers[i] for i in self.name_ids]
        for sid in range(n):
            parent = parents[sid]
            bit = 1 << layers[sid]
            inherited = above[parent] if parent >= 0 else 0
            above[sid] = inherited | bit
            duration = ends[sid] - starts[sid]
            entry = by_index[layers[sid]]
            entry["calls"] += 1
            entry["self_s"] += duration
            if parent >= 0:  # the part of the parent this span covers
                by_index[layers[parent]]["self_s"] -= duration
            if not inherited & bit:
                entry["total_s"] += duration
        return totals

    def name_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed duration per boundary (``Class.method``)."""
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for sid, name_id in enumerate(self.name_ids):
            name = self.span_names[name_id]
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = (
                seconds.get(name, 0.0) + self.ends[sid] - self.starts[sid]
            )
        return calls, seconds

    def write_chrome(self, path, label: str) -> None:
        """Chrome ``trace_event`` JSON of the first spans (Perfetto)."""
        n = len(self.name_ids)
        origin = self.starts[0]
        kept = min(n, CHROME_SPAN_LIMIT)
        events: list[dict] = [
            {
                "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                "args": {"name": label, "spans": n, "dropped": n - kept},
            }
        ]
        for sid in range(kept):
            name_id = self.name_ids[sid]
            events.append(
                {
                    "name": self.span_names[name_id],
                    "cat": LAYER_NAMES[self.span_layers[name_id]],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (self.starts[sid] - origin) * 1e6,
                    "dur": (self.ends[sid] - self.starts[sid]) * 1e6,
                    "args": {
                        "id": sid,
                        "parent": self.parents[sid],
                        "op": self.ops[sid],
                    },
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
