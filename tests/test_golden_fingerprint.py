"""Golden-fingerprint regression gate against silent determinism drift.

One checked-in fingerprint — request-type counts, cache counters, result
hashes and the exact final simulated clock — for Q1/Q6 at a fixed
scale/seed under the hstorage configuration.  Every run must reproduce
it bit-for-bit, so it catches a changed request stream, altered cache
accounting, or a float landing differently anywhere in the timing model.
It also pins per-type cache hits and write-buffer flushes, which the
executor traces (``tests/test_vectorized_diff.py``) leave out.

Regenerate intentionally (after a PR that is *supposed* to change the
simulated world) with:

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_fingerprint.py
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.harness.configs import build_database, hstorage_config
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder, query_label
from repro.tpch.workload import load_tpch

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "q1_q6_hstorage.json"
SCALE = 0.05
SEED = 42
QUERIES = (1, 6)


def compute_fingerprint() -> dict:
    # Sized *below* the scan working set on purpose: the fingerprint
    # must cover buffer-pool eviction and SSD-cache admission traffic,
    # not just a fully-resident re-read.
    config = hstorage_config(
        cache_blocks=48, bufferpool_pages=32, work_mem_rows=2000
    )
    db = build_database(config)
    load_tpch(db, data=generate(scale=SCALE, seed=SEED))
    db.reset_measurements()
    queries = {}
    for qid in QUERIES:
        result = db.run_query(query_builder(qid), label=query_label(qid))
        queries[result.label] = {
            "rows": result.row_count,
            "rows_sha256": hashlib.sha256(
                repr(result.rows).encode()
            ).hexdigest(),
            "sim_seconds": repr(result.sim_seconds),
        }
    db.storage.drain()
    overall = db.storage.stats.overall
    cache = getattr(db.storage.backend, "cache", None)
    return {
        "scale": SCALE,
        "seed": SEED,
        "config": "hstorage",
        "queries": queries,
        "by_type": {
            rtype.name: [counts.requests, counts.blocks, counts.cache_hits]
            for rtype, counts in sorted(
                overall.by_type.items(), key=lambda kv: kv[0].name
            )
            if counts.requests
        },
        "total_requests": overall.total.requests,
        "total_blocks": overall.total.blocks,
        "pool_hits": db.pool.hits,
        "pool_misses": db.pool.misses,
        "write_buffer_flushes": getattr(cache, "write_buffer_flushes", 0),
        "write_buffer_blocks": getattr(cache, "write_buffer_blocks", 0),
        "clock_now": repr(db.clock.now),
        "clock_background": repr(db.clock.background),
    }


def test_fingerprint_matches_golden():
    fingerprint = compute_fingerprint()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(fingerprint, indent=2) + "\n")
        pytest.skip(f"golden fingerprint regenerated at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert fingerprint == golden, (
        "simulated world drifted from the checked-in golden fingerprint; "
        "if the drift is an intended consequence of this change, "
        "regenerate with REPRO_REGEN_GOLDEN=1 and say so in the PR"
    )
