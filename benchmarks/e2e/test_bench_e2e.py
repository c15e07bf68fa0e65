"""Smoke test of the end-to-end ledger (run explicitly, not by tier-1):

    python -m pytest benchmarks/e2e/test_bench_e2e.py -q

Runs every workload once at ``--quick`` size with the traced pass and
checks the shape of what comes out against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

BENCH_SHARE_LIMIT = 0.05
"""The share of a traced region that may run outside every listed
boundary (the benchmark's own loop, harness glue) before the layer table
no longer explains the workload."""


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--quick", "--trace", "--out", str(out),
        ],
        check=True,
    )
    return json.loads(out.read_text())


def test_emits_exactly_the_declared_workloads_and_metrics(ledger):
    assert list(ledger["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for entry in ledger["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            emitted = {
                name: cell["unit"] for name, cell in entry[section].items()
            }
            assert emitted == declared
    # Zero-filling must not hide a declared metric that nothing measures.
    for metric in SPEC["per_layer"]:
        assert any(
            "absent" not in entry["per_layer"][metric["name"]]
            for entry in ledger["workloads"].values()
        ), metric["name"]


def test_names_are_plain():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_every_operation_succeeds_and_spans_close(ledger):
    for name, entry in ledger["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        layers = entry["per_layer"]
        assert abs(layers["bench.self_closure"]["value"] - 1) <= 0.01, name
        share = layers["bench.self_s"]["value"] / layers["bench.total_s"]["value"]
        assert share <= BENCH_SHARE_LIMIT, (name, share)


def test_span_files_are_valid_chrome_traces(ledger):
    traces = [
        str(HERE / "out" / f"{name}.trace.json") for name in ledger["workloads"]
    ]
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "check_chrome_trace.py")]
        + traces,
        check=True,
    )


def test_moved_boundary_fails_loudly(monkeypatch):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import layers

    monkeypatch.setitem(
        layers.LAYERS, "storage.tiers",
        (("repro.storage.tiers:TierChain", ("submit_all",)),),
    )
    with pytest.raises(layers.LayerBoundaryMoved, match="submit_all"):
        layers.resolve_boundaries()
