"""Shared builders for DBMS-layer tests."""

from __future__ import annotations

from repro.db.engine import Database
from repro.harness.configs import StorageConfig, build_database


def make_database(
    kind: str = "hstorage",
    cache_blocks: int = 256,
    bufferpool_pages: int = 32,
    work_mem_rows: int = 100,
    btree_order: int = 8,
    **kw,
) -> Database:
    """A small database for unit/integration tests.

    The tiny btree order forces multi-level trees with little data; the
    small pool and work_mem force storage traffic and spills.
    """
    config = StorageConfig(
        kind=kind,
        cache_blocks=cache_blocks,
        bufferpool_pages=bufferpool_pages,
        work_mem_rows=work_mem_rows,
        btree_order=btree_order,
        **kw,
    )
    return build_database(config)


def trace_requests(db: Database) -> list[tuple]:
    """Record every request reaching storage, in submission order."""
    log: list[tuple] = []
    original = db.storage.submit

    def spy(request):
        log.append(
            (request.op.name, request.lba, request.nblocks,
             request.rtype.name, request.policy, request.segments)
        )
        return original(request)

    db.storage.submit = spy
    return log
