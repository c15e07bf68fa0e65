"""Fused scan→filter→aggregate kernels for the push executor (DESIGN.md §12).

When a plan's lower pipeline is an aggregate directly over a sequential
scan — the Q1 and Q6 shape — and the nodes carry declarative mirrors of
their row lambdas (:attr:`SeqScan.pred_cols`, :attr:`HashAggregate.
group_cols`, :attr:`~repro.db.exprs.AggSpec.col_expr`), the push executor
replaces the whole pipeline segment with one *generated* kernel:

* the scan feeds whole morsels (read-ahead windows) via
  :meth:`~repro.db.heap.HeapFile.scan_window_columns`, extracting value
  arrays for exactly the columns the predicate touches;
* the predicate is compiled into a single list comprehension building the
  morsel's selection vector column-at-a-time over those arrays;
* grouping and accumulator updates are specialized Python source reading
  the surviving row tuples directly (``r = rows[i]``) — measured faster
  than extracting every referenced column, since the selection vector has
  already shrunk the row set;
* aggregates that accumulate the same state share slots: ``sum(e)`` and
  ``avg(e)`` of the identical expression both advance one
  ``(total, count)`` pair, ``count(*)`` keeps one counter
  (:func:`_slot_layout`).

Bit-identity with the row/vectorized paths is structural, not tested-in:

* **Requests** — the kernel reads through the same
  ``scan_window_columns`` windows the buffer pool serves to the other
  modes, so page faults are identical; a window's overflow rows go
  through the same :func:`~repro.db.temp.route_rows` in arrival order
  before the next window fault, so temp I/O is identical.
* **CPU** — per window the kernel charges ``len(rows)`` (scan) plus
  ``len(sel)`` (aggregate): exactly the per-page totals the vectorized
  operators charge between the same two window faults, and
  :meth:`ExecutionContext.cpu_tick`'s fixed 512-tuple flushing makes the
  call grouping invisible.
* **Floats** — generated accumulator updates run sequentially in row
  arrival order with the same operand order as the row lambdas, and the
  same ``None`` handling as :class:`~repro.db.exprs._Acc`.  Slot sharing
  is safe because the deduplicated accumulators would have executed the
  identical operation sequence slot by slot.

Kernel *code objects* are cached by generated source; constants bind per
query through ``_K<n>`` namespace slots (never ``repr``'d).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.semantics import SemanticInfo
from repro.db.columnar import ROW_REF
from repro.db.executor.agg import HashAggregate, StreamAggregate
from repro.db.executor.join import _new_partitions
from repro.db.executor.scan import SeqScan
from repro.db.plan import PULSE, ExecutionContext, chunk_rows
from repro.db.temp import route_rows

_CODE_CACHE: dict[str, object] = {}


def match(node, ctx: ExecutionContext):
    """Return a fused batch stream for a fusable plan segment, else None.

    Exact-type matches only: subclasses may override behaviour the
    generated code would silently skip.  Snapshot scans resolve row
    versions page-at-a-time and never fuse.
    """
    if ctx.snapshot is not None and ctx.mvcc is not None:
        return None
    if type(node) is HashAggregate:
        return _match_hash_aggregate(node, ctx)
    if type(node) is StreamAggregate:
        return _match_stream_aggregate(node, ctx)
    return None


def _fusable_scan(node) -> SeqScan | None:
    scan = node.children[0]
    if type(scan) is not SeqScan or scan.project is not None:
        return None
    if scan.pred is not None and scan.pred_cols is None:
        return None
    return scan


def _fusable_aggs(specs) -> bool:
    return all(
        spec.col_expr is not None
        or (spec.kind == "count" and spec.value is None)
        for spec in specs
    )


def _match_hash_aggregate(node: HashAggregate, ctx: ExecutionContext):
    if node.group_cols is None or not node.group_cols:
        return None
    scan = _fusable_scan(node)
    if scan is None or not _fusable_aggs(node.aggs):
        return None
    source, params, positions, init, offsets = _hash_aggregate_source(
        scan.pred_cols if scan.pred is not None else None,
        node.group_cols,
        node.aggs,
    )
    kernel = _bind(source, params, init)
    return _hash_aggregate_stream(
        node, scan, ctx, kernel, positions, offsets
    )


def _match_stream_aggregate(node: StreamAggregate, ctx: ExecutionContext):
    if node.group_key is not None:
        return None
    scan = _fusable_scan(node)
    if scan is None or not node.aggs or not _fusable_aggs(node.aggs):
        return None
    source, params, positions, offsets = _scalar_aggregate_source(
        scan.pred_cols if scan.pred is not None else None, node.aggs
    )
    kernel = _bind(source, params, None)
    return _scalar_aggregate_stream(
        node, scan, ctx, kernel, positions, offsets
    )


# ----------------------------------------------------------------- runtime


def _windows(scan: SeqScan, ctx: ExecutionContext, positions):
    sem = SemanticInfo.table_scan(scan.relation.oid, query_id=ctx.query_id)
    return scan.relation.heap.scan_window_columns(ctx.pool, sem, positions)


def _hash_aggregate_stream(
    node: HashAggregate, scan: SeqScan, ctx, kernel, positions, offsets
) -> Iterator:
    groups: dict = {}
    partitions = yield from kernel(
        ctx, _windows(scan, ctx, positions), groups, node.group_key
    )
    specs, project, having = node.aggs, node.project, node.having

    def emit():
        for key, acc in groups.items():
            out = project(key, _finalize(specs, offsets, acc))
            if having is not None and not having(out):
                continue
            yield out

    yield from chunk_rows(emit())
    if partitions is not None:
        for part in partitions:
            part.finish_writing()
        for part in partitions:
            yield from node._aggregate_batches(ctx, part.read_batches())
            part.delete()


def _scalar_aggregate_stream(
    node: StreamAggregate, scan: SeqScan, ctx, kernel, positions, offsets
) -> Iterator:
    seen, acc = yield from kernel(ctx, _windows(scan, ctx, positions))
    if seen:
        yield [_finalize(node.aggs, offsets, acc)]


def _finalize(specs, offsets, acc) -> tuple:
    """Results tuple from a flat slot list — same math as ``_Acc.result``.

    ``offsets[k]`` is spec ``k``'s first slot in the deduplicated layout;
    sum/avg read their shared ``(total, count)`` pair from it.
    """
    out = []
    for spec, off in zip(specs, offsets):
        kind = spec.kind
        if kind == "sum":
            out.append(acc[off] if acc[off + 1] else None)
        elif kind == "avg":
            count = acc[off + 1]
            out.append(acc[off] / count if count else None)
        else:  # count / min / max keep their answer in one slot
            out.append(acc[off])
    return tuple(out)


def _bind(source: str, params: list, init):
    """Compile (cached by source) and bind one query's constants."""
    code = _CODE_CACHE.get(source)
    if code is None:
        code = _CODE_CACHE[source] = compile(source, "<fused-kernel>", "exec")
    namespace: dict = {
        "PULSE": PULSE,
        "_new_parts": _new_partitions,
        "_route_rows": route_rows,
        "_INIT": init,
    }
    for n, value in enumerate(params):
        namespace[f"_K{n}"] = value
    exec(code, namespace)
    return namespace["_fused"]


# ----------------------------------------------------------------- codegen


def _render(pred, specs):
    """Shared source fragments.

    The predicate renders against extracted column arrays (it touches
    every row, so column-at-a-time pays off); aggregate expressions
    render against the current row tuple ``r`` (they only touch
    selected rows).  ``positions`` is therefore the predicate's column
    set alone — the only extraction the kernel needs.
    """
    params: list = []
    pred_src = pred.source(params) if pred is not None else None
    expr_srcs = [
        spec.col_expr.source(params, ROW_REF)
        if spec.col_expr is not None
        else None
        for spec in specs
    ]
    positions = tuple(sorted(pred.columns())) if pred is not None else ()
    return params, pred_src, expr_srcs, positions


def _slot_layout(specs, expr_srcs):
    """Deduplicated accumulator layout.

    ``sum(e)`` and ``avg(e)`` of the identical expression source advance
    the identical ``(total, count)`` pair, so they share slots;
    ``count(*)`` keeps a single counter; ``count``/``min``/``max``
    dedupe per expression (min and max never share — they track
    different extremes).  Returns the slot init tuple, each spec's slot
    offset, and the unique update entries ``(slot-class, expr-source,
    offset)`` in first-appearance order.
    """
    init: list = []
    offsets: list[int] = []
    entries: list[tuple[str, str | None, int]] = []
    index: dict = {}
    for spec, src in zip(specs, expr_srcs):
        kind = spec.kind
        cls = "sumavg" if kind in ("sum", "avg") else kind
        off = index.get((cls, src))
        if off is None:
            off = index[(cls, src)] = len(init)
            entries.append((cls, src, off))
            if cls == "sumavg":
                init += [0.0, 0]
            elif cls == "count":
                init.append(0)
            else:
                init.append(None)
        offsets.append(off)
    return tuple(init), tuple(offsets), entries


def _window_prelude(lines, positions, pred_src) -> None:
    lines += [
        "    for rows, cols in windows:",
        "        n = len(rows)",
        "        tick(n)",
    ]
    for j, pos in enumerate(positions):
        lines.append(f"        c{pos} = cols[{j}]")
    if pred_src is not None:
        lines.append(f"        sel = [i for i in range(n) if {pred_src}]")
    else:
        lines.append("        sel = range(n)")
    lines.append("        tick(len(sel))")


def _update_lines(entries, indent: str, ref) -> list[str]:
    """Accumulator-update source mirroring ``_Acc.add`` entry by entry."""
    lines: list[str] = []
    for cls, src, off in entries:
        if src is None:  # count(*)
            lines.append(f"{indent}{ref(off)} += 1")
            continue
        lines.append(f"{indent}v = {src}")
        if cls == "sumavg":
            lines += [
                f"{indent}if v is not None:",
                f"{indent}    {ref(off)} += v",
                f"{indent}    {ref(off + 1)} += 1",
            ]
        elif cls == "count":
            lines += [
                f"{indent}if v is not None:",
                f"{indent}    {ref(off)} += 1",
            ]
        else:
            op = "<" if cls == "min" else ">"
            best = ref(off)
            lines += [
                f"{indent}if v is not None and "
                f"({best} is None or v {op} {best}):",
                f"{indent}    {best} = v",
            ]
    return lines


def _hash_aggregate_source(pred, group_cols, specs):
    params, pred_src, expr_srcs, positions = _render(pred, specs)
    init, offsets, entries = _slot_layout(specs, expr_srcs)
    if len(group_cols) > 1:
        key_src = "(" + ", ".join(f"r[{p}]" for p in group_cols) + ")"
    else:
        key_src = f"r[{group_cols[0]}]"
    lines = [
        "def _fused(ctx, windows, groups, group_key):",
        "    tick = ctx.cpu_tick",
        "    work_mem = ctx.work_mem_rows",
        "    get = groups.get",
        "    parts = None",
    ]
    _window_prelude(lines, positions, pred_src)
    lines += [
        "        missed = []",
        "        for i in sel:",
        "            r = rows[i]",
        f"            key = {key_src}",
        "            acc = get(key)",
        "            if acc is None:",
        "                if parts is None and len(groups) >= work_mem:",
        "                    parts = _new_parts(ctx)",
        "                if parts is not None:",
        # Spilled rows carry the *full* row tuple so the partition
        # re-aggregation pass (shared with the other modes) can replay
        # the row lambdas.
        "                    missed.append(r)",
        "                    continue",
        "                acc = groups[key] = list(_INIT)",
    ]
    lines += _update_lines(entries, " " * 12, lambda s: f"acc[{s}]")
    lines += [
        # The window's overflow rows route once, by the node's own
        # group_key (the declarative key is its mirror), as on the
        # vectorized path.
        "        if missed:",
        "            _route_rows(parts, group_key, missed)",
        "        yield PULSE",
        "    return parts",
    ]
    return "\n".join(lines) + "\n", params, positions, init, offsets


def _scalar_aggregate_source(pred, specs):
    params, pred_src, expr_srcs, positions = _render(pred, specs)
    init, offsets, entries = _slot_layout(specs, expr_srcs)
    lines = [
        "def _fused(ctx, windows):",
        "    tick = ctx.cpu_tick",
        "    seen = False",
    ]
    for k, value in enumerate(init):
        lines.append(f"    a{k} = {value!r}")
    _window_prelude(lines, positions, pred_src)
    lines += [
        # bool(range(0)) is False: with no predicate `sel` still reports
        # whether the window contributed rows, matching the vectorized
        # path's seen_any (set only for non-empty scan batches).
        "        if sel:",
        "            seen = True",
        "        for i in sel:",
        "            r = rows[i]",
    ]
    lines += _update_lines(entries, " " * 12, lambda s: f"a{s}")
    slots = ", ".join(f"a{k}" for k in range(len(init)))
    lines += [
        "        yield PULSE",
        f"    return (seen, [{slots}])",
    ]
    return "\n".join(lines) + "\n", params, positions, offsets
