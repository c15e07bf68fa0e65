"""Operator-level query profiling: ``Database.explain_analyze``.

Attributes a query's simulated time to individual plan nodes, split into
modelled-CPU and I/O seconds, with rows/batches and buffer-pool hit
counters per node.

Mechanism: each plan node's ``execute_batch`` is wrapped *per instance*
(the classes stay untouched) with a frame that samples the sim clock's
separate I/O and CPU accumulators around each ``next()`` call.
Frames nest on the Python call stack; each frame subtracts the time
its callees already claimed (the
``below_*`` scratch in :class:`_Meter`), so self-times are non-negative
by construction and every simulated second is claimed exactly once.
Driver overhead outside any operator (engine stepping, final CPU flush,
the end-of-query writeback drain) is folded into the root node, so node
self-times sum exactly to the query's simulated elapsed time — the
closure invariant tested in ``tests/test_obs_profile.py``.

Profiling is read-only with respect to the simulation: wrappers sample
the clock and pool counters but never advance or mutate them, so an
``explain_analyze`` run is bit-identical to a plain ``run_query``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.levels import iter_nodes
from repro.db.plan import PULSE


@dataclass
class NodeProfile:
    """Per-plan-node measurements."""

    label: str
    op: str
    children: list["NodeProfile"] = field(default_factory=list)
    rows_out: int = 0
    batches_out: int = 0
    pulses: int = 0
    self_io_seconds: float = 0.0
    self_cpu_seconds: float = 0.0
    pool_hits: int = 0
    pool_misses: int = 0
    first_seconds: float | None = None
    last_seconds: float | None = None

    @property
    def self_seconds(self) -> float:
        return self.self_io_seconds + self.self_cpu_seconds

    @property
    def rows_in(self) -> int:
        return sum(child.rows_out for child in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "op": self.op,
            "rows_out": self.rows_out,
            "rows_in": self.rows_in,
            "batches_out": self.batches_out,
            "self_io_seconds": self.self_io_seconds,
            "self_cpu_seconds": self.self_cpu_seconds,
            "self_seconds": self.self_seconds,
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "children": [child.as_dict() for child in self.children],
        }


class _Meter:
    """Shared scratch for nested measurement frames.

    ``below_*`` accumulate what frames *inside* the currently-returning
    frame already claimed, so the enclosing frame books only its own
    share.  Saved/restored per frame, so arbitrary nesting stays exact.
    """

    __slots__ = ("clock", "pool", "below_io", "below_cpu", "below_hits",
                 "below_misses")

    def __init__(self, clock, pool) -> None:
        self.clock = clock
        self.pool = pool
        self.below_io = 0.0
        self.below_cpu = 0.0
        self.below_hits = 0
        self.below_misses = 0


class _Frame:
    """Measure one wrapped call and charge the node's self-counters."""

    __slots__ = ("prof", "meter", "io0", "cpu0", "hits0", "misses0", "saved")

    def __init__(self, prof: NodeProfile, meter: _Meter) -> None:
        self.prof = prof
        self.meter = meter

    def __enter__(self) -> "_Frame":
        meter = self.meter
        clock = meter.clock
        pool = meter.pool
        self.io0 = clock.io_seconds
        self.cpu0 = clock.cpu_seconds
        self.hits0 = pool.hits
        self.misses0 = pool.misses
        self.saved = (meter.below_io, meter.below_cpu, meter.below_hits,
                      meter.below_misses)
        meter.below_io = meter.below_cpu = 0.0
        meter.below_hits = meter.below_misses = 0
        return self

    def __exit__(self, *exc) -> bool:
        meter = self.meter
        clock = meter.clock
        pool = meter.pool
        prof = self.prof
        d_io = clock.io_seconds - self.io0
        d_cpu = clock.cpu_seconds - self.cpu0
        d_hits = pool.hits - self.hits0
        d_misses = pool.misses - self.misses0
        prof.self_io_seconds += d_io - meter.below_io
        prof.self_cpu_seconds += d_cpu - meter.below_cpu
        prof.pool_hits += d_hits - meter.below_hits
        prof.pool_misses += d_misses - meter.below_misses
        meter.below_io = self.saved[0] + d_io
        meter.below_cpu = self.saved[1] + d_cpu
        meter.below_hits = self.saved[2] + d_hits
        meter.below_misses = self.saved[3] + d_misses
        if prof.first_seconds is None:
            prof.first_seconds = self.io0 + self.cpu0
        prof.last_seconds = clock.io_seconds + clock.cpu_seconds
        return False


def _timed_iter(inner, prof: NodeProfile, meter: _Meter):
    """Wrap an operator's item stream with per-``next()`` measurement."""
    while True:
        with _Frame(prof, meter):
            try:
                item = next(inner)
            except StopIteration:
                return
        if item is PULSE:
            prof.pulses += 1
        else:
            prof.batches_out += 1
            prof.rows_out += len(item)
        yield item


# ------------------------------------------------------------- installation


def _patch_stream(node, prof, meter, undo) -> None:
    original = node.execute_batch

    def patched(*args, **kwargs):
        return _timed_iter(original(*args, **kwargs), prof, meter)

    node.execute_batch = patched
    undo.append(lambda: delattr(node, "execute_batch"))


def _install(plan, profiles: dict, meter) -> list:
    undo: list = []
    # A subtree shared by two parents (a reused Materialize) appears
    # once per parent in the walk but is wrapped once.
    for node in {id(node): node for node in iter_nodes(plan)}.values():
        _patch_stream(node, profiles[id(node)], meter, undo)
    return undo


def _build_profiles(plan) -> tuple[NodeProfile, dict]:
    profiles: dict[int, NodeProfile] = {}

    def build(node) -> NodeProfile:
        prof = NodeProfile(
            label=node.label,
            op=type(node).__name__,
            children=[build(child) for child in node.children],
        )
        profiles[id(node)] = prof
        return prof

    return build(plan), profiles


# ------------------------------------------------------------------ results


@dataclass
class QueryProfile:
    """The ``explain_analyze`` result: a measured plan tree."""

    label: str
    query_id: int
    root: NodeProfile
    sim_seconds: float
    io_seconds: float
    cpu_seconds: float
    result: object  # QueryResult

    def total_self_seconds(self) -> float:
        return sum(prof.self_seconds for prof in self.root.walk())

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "query_id": self.query_id,
            "sim_seconds": self.sim_seconds,
            "io_seconds": self.io_seconds,
            "cpu_seconds": self.cpu_seconds,
            "plan": self.root.as_dict(),
        }

    def render(self) -> str:
        """Terminal rendering: one row per node, indented by depth."""
        header = (
            f"explain analyze: {self.label}  "
            f"rows={self.root.rows_out}  sim={self.sim_seconds:.6f}s "
            f"(io {self.io_seconds:.6f}s + cpu {self.cpu_seconds:.6f}s)"
        )
        rows: list[tuple[str, NodeProfile]] = []

        def collect(prof: NodeProfile, depth: int) -> None:
            rows.append(("  " * depth + prof.label, prof))
            for child in prof.children:
                collect(child, depth + 1)

        collect(self.root, 0)
        name_width = max(len(name) for name, _ in rows)
        name_width = max(name_width, len("node"))
        lines = [header, ""]
        lines.append(
            f"  {'node'.ljust(name_width)}  {'rows':>9}  {'batches':>8}  "
            f"{'self io s':>10}  {'self cpu s':>10}  {'hits':>7}  "
            f"{'misses':>7}"
        )
        for name, prof in rows:
            lines.append(
                f"  {name.ljust(name_width)}  {prof.rows_out:>9}  "
                f"{prof.batches_out:>8}  {prof.self_io_seconds:>10.6f}  "
                f"{prof.self_cpu_seconds:>10.6f}  {prof.pool_hits:>7}  "
                f"{prof.pool_misses:>7}"
            )
        return "\n".join(lines)


def _emit_spans(db, execution, profile: QueryProfile) -> None:
    """Mirror the measured plan tree into the query's trace span."""
    observer = getattr(db.storage, "observer", None)
    if observer is None or not observer.enabled or observer.tracer is None:
        return
    parent = getattr(execution, "span", None)
    if parent is None:
        return
    tracer = observer.tracer

    def emit(prof: NodeProfile, parent_span) -> None:
        start = prof.first_seconds
        end = prof.last_seconds
        if start is None or end is None:
            start = parent_span.start
            end = parent_span.start
        span = tracer.add_span(
            prof.label,
            "operator",
            start,
            end,
            parent=parent_span,
            rows=prof.rows_out,
            self_io_seconds=prof.self_io_seconds,
            self_cpu_seconds=prof.self_cpu_seconds,
        )
        if span is None:
            return
        for child in prof.children:
            emit(child, span)

    emit(profile.root, parent)


def profile_query(
    db, plan_or_builder, label: str = "query", snapshot=None
) -> QueryProfile:
    """Run one query with per-node measurement; returns a QueryProfile.

    The measured simulation is bit-identical to an unprofiled run: the
    wrappers only sample the clock and pool counters.
    """
    plan = db.build_plan(plan_or_builder)
    root, profiles = _build_profiles(plan)
    clock = db.clock
    meter = _Meter(clock, db.pool)
    undo = _install(plan, profiles, meter)
    io0, cpu0 = clock.io_seconds, clock.cpu_seconds
    try:
        execution = db.start_query(plan, label, collect=True,
                                   snapshot=snapshot)
        execution.run_to_completion()
    finally:
        for restore in reversed(undo):
            restore()
    io1, cpu1 = clock.io_seconds, clock.cpu_seconds
    result = execution.result()
    # Fold driver residual (engine stepping, final CPU flush, the
    # end-of-query drain) into the root: self-times then sum exactly to
    # the query's simulated elapsed time.
    sum_io = sum(prof.self_io_seconds for prof in root.walk())
    sum_cpu = sum(prof.self_cpu_seconds for prof in root.walk())
    root.self_io_seconds += (io1 - io0) - sum_io
    root.self_cpu_seconds += (cpu1 - cpu0) - sum_cpu
    if root.rows_out == 0 and result.rows:
        root.rows_out = len(result.rows)
    profile = QueryProfile(
        label=label,
        query_id=execution.query_id,
        root=root,
        sim_seconds=result.sim_seconds,
        io_seconds=io1 - io0,
        cpu_seconds=cpu1 - cpu0,
        result=result,
    )
    _emit_spans(db, execution, profile)
    return profile
