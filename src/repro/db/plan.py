"""Plan nodes and the execution context.

Plan trees are built programmatically by the workload layer (there is no
SQL parser — DESIGN.md §6); every node implements the iterator model via a
generator-returning :meth:`PlanNode.execute_batch` that yields row batches
(or via a row-yielding :meth:`PlanNode.execute`, which the base class
adapts).  Nodes satisfy the
:class:`repro.core.levels.PlanLike` protocol, so the core level algorithms
apply directly, and random-access operators report the (oid, level) pairs
that Rule 5's registry needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.core.registry import RandomOperatorRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.bufferpool import BufferPool
    from repro.db.temp import TempFileManager
    from repro.db.txn.mvcc import MVCCManager, Snapshot
    from repro.sim.clock import SimClock
    from repro.sim.params import SimulationParameters

_CPU_FLUSH_TUPLES = 512


class _Pulse:
    """Scheduling pulse: a non-row item operators emit periodically.

    Blocking operators (hash builds, sorts, aggregations) consume their
    entire input before producing the first row; without pulses, a
    co-running query would execute such a phase atomically and the
    concurrency experiments (paper Section 6.4) would interleave nothing.
    Operators yield ``PULSE`` every few hundred processed items and pass
    through pulses from their children; the scheduler counts them against
    a query's quantum, and the engine filters them out of results.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<pulse>"


PULSE = _Pulse()

PULSE_EVERY = 256
"""Rows processed between pulses in row-granular loops (index scans, the
external sort's merge); batch loops pulse once per batch."""

VECTOR_SIZE = 1024
"""Target rows per batch.

Operators that produce rows from an in-memory source (index scans, sorts,
aggregate emission) chunk their output at this size; page-backed scans use
the natural heap-page capacity instead.  Batches are plain lists of row
tuples, treated as immutable by convention: an operator must never mutate
a batch it received — it builds a new list (or passes the old one along).
"""


def rows_only(items):
    """Filter pulses out of an operator's output stream."""
    return (item for item in items if item is not PULSE)


def chunk_rows(rows, size: int = VECTOR_SIZE):
    """Group an in-memory row sequence into batches of ``size`` rows."""
    if isinstance(rows, list):
        for start in range(0, len(rows), size):
            yield rows[start:start + size]
        return
    batch: list = []
    for row in rows:
        batch.append(row)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


@dataclass
class ExecutionContext:
    """Per-query runtime state threaded through the operators."""

    pool: "BufferPool"
    temp: "TempFileManager"
    clock: "SimClock"
    params: "SimulationParameters"
    query_id: int
    work_mem_rows: int
    levels: dict[int, int] = field(default_factory=dict)
    snapshot: "Snapshot | None" = None
    """MVCC snapshot the query reads under (None: read current state —
    the only mode before DESIGN.md §10, and still the default)."""
    mvcc: "MVCCManager | None" = None
    """Version-chain store backing :attr:`snapshot` resolution."""
    _pending_cpu_tuples: int = 0

    def level(self, node: "PlanNode") -> int:
        """Effective plan level of a node (0 when levels are not computed)."""
        return self.levels.get(id(node), 0)

    def cpu_tick(self, tuples: int = 1) -> None:
        """Charge modelled CPU time for processed tuples (batched).

        Time reaches the clock in whole ``_CPU_FLUSH_TUPLES`` chunks with
        the remainder carried over, so ``cpu_tick(n)`` emits bit-for-bit
        the same clock advances as ``n`` single-tuple ticks: how the rows
        are grouped into batches never changes the simulated CPU time.
        """
        pending = self._pending_cpu_tuples + tuples
        if pending >= _CPU_FLUSH_TUPLES:
            chunk_seconds = _CPU_FLUSH_TUPLES * self.params.cpu_s_per_tuple
            while pending >= _CPU_FLUSH_TUPLES:
                self.clock.advance_cpu(chunk_seconds)
                pending -= _CPU_FLUSH_TUPLES
        self._pending_cpu_tuples = pending

    def flush_cpu(self) -> None:
        if self._pending_cpu_tuples:
            self.clock.advance_cpu(
                self._pending_cpu_tuples * self.params.cpu_s_per_tuple
            )
            self._pending_cpu_tuples = 0


class PlanNode:
    """Base class for all operators."""

    is_blocking = False

    def __init__(self, *children: "PlanNode", label: str | None = None) -> None:
        self._children = list(children)
        self.label = label if label is not None else type(self).__name__

    @property
    def children(self) -> list["PlanNode"]:
        return self._children

    def execute(self, ctx: ExecutionContext) -> Iterator[tuple]:
        """Row-yielding body for nodes without a batch loop (see below)."""
        raise NotImplementedError

    def execute_batch(self, ctx: ExecutionContext) -> Iterator:
        """Execution: yields row batches (lists) and pulses.

        The built-in operators override this with native batch loops; this
        default adapts a node that yields rows from :meth:`execute` (index
        scans, custom nodes, refresh streams).  It forwards one-row
        mini-batches rather than accumulating: ``execute`` may perform I/O
        between rows, and regrouping across such a boundary would move a
        downstream operator's requests after I/O that should follow them.
        """
        for item in self.execute(ctx):
            yield item if item is PULSE else [item]

    def random_refs(self, level: int) -> list[RandomOperatorRef]:
        """(oid, level) pairs this operator contributes to Rule 5's registry."""
        del level
        return []

    # ----------------------------------------------------------------- debug

    def explain(self, indent: int = 0, levels: dict[int, int] | None = None) -> str:
        """Readable plan tree, optionally annotated with effective levels."""
        mark = ""
        if levels is not None and id(self) in levels:
            mark = f"  [level {levels[id(self)]}]"
        lines = ["  " * indent + self.label + mark]
        for child in self._children:
            lines.append(child.explain(indent + 1, levels))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.label!r})"

