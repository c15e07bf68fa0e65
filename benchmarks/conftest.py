"""Shared fixtures for the benchmark harness.

Scale can be lowered for smoke runs: ``REPRO_BENCH_SCALE=0.2 pytest
benchmarks/ --benchmark-only``.  Experiment outputs are printed and also
written to ``benchmarks/results/`` so figures/tables survive the run.

Expensive experiments are computed once per session and shared between
the figure bench and its dependent table benches (e.g. Figure 6 feeds
Tables 5 and 6), mirroring how the paper derives tables from the same
runs.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.harness import ExperimentRunner, RunnerSettings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

ENVELOPE_SCHEMA = "repro-bench/v1"
"""Every machine-readable benchmark artifact (``results/*.json`` written
through :func:`publish_envelope` and the repo-root ``BENCH_PR<n>.json``
trajectory files) shares one top-level shape::

    {
      "schema": "repro-bench/v1",
      "bench":  "<benchmark name>",
      "pr":     <int>,                      # the PR that gated on it
      "gates":  {"<name>": {"value": <float>, "floor": <float>}, ...},
      "payload": {...}                      # bench-specific content
    }

``gates`` records every speedup/threshold the PR was accepted against;
``benchmarks/check_trajectory.py`` re-validates each artifact and fails
if a recorded value regresses below its floor."""


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return ExperimentRunner(RunnerSettings(scale=scale))


@pytest.fixture(scope="session")
def shared_cache() -> dict:
    """Session-wide memo for experiment results shared across benches."""
    return {}


def compute_once(cache: dict, key: str, fn):
    if key not in cache:
        cache[key] = fn()
    return cache[key]


def publish(name: str, text: str) -> None:
    """Print a rendered experiment and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def publish_json(name: str, payload) -> pathlib.Path:
    """Persist a machine-readable experiment result under results/.

    CI smoke runs assert that the JSON exists and parses; downstream
    tooling (regression dashboards, PR descriptions) reads it.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def envelope(bench: str, pr: int, payload, gates: dict | None = None) -> dict:
    """Wrap a bench payload in the :data:`ENVELOPE_SCHEMA` shape.

    ``gates`` maps gate name to ``(value, floor)``.
    """
    return {
        "schema": ENVELOPE_SCHEMA,
        "bench": bench,
        "pr": pr,
        "gates": {
            name: {"value": value, "floor": floor}
            for name, (value, floor) in (gates or {}).items()
        },
        "payload": payload,
    }


def publish_envelope(env: dict) -> pathlib.Path:
    """Persist an enveloped result under results/ (named after the bench)."""
    return publish_json(env["bench"], env)


def write_trajectory(env: dict) -> None:
    """Write ``BENCH_PR<n>.json`` at the repo root — the artifact a PR's
    acceptance gates were measured against.

    Only full-fidelity runs may overwrite it: shrunken smoke runs
    (``REPRO_BENCH_SCALE < 1``) would record noise-dominated gate values
    that the trajectory check then treats as regressions.
    """
    if BENCH_SCALE < 1.0:
        return
    path = REPO_ROOT / f"BENCH_PR{env['pr']}.json"
    path.write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")
