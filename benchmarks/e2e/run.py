#!/usr/bin/env python3
"""The end-to-end host-time ledger: six workloads, one set of metrics.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed 42]
        [--reps 5 | --seconds S] [--trace] [--quick] [--out FILE]
        [--regen-expected]

With exactly one ``--workload`` the workload is measured in this process
and the last line of standard output is the result object the benchmark
contract asks for (``correct``, ``attempted``, ``failed``, ``metrics``):
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Otherwise every named workload (default: all six) runs in
a subprocess of its own, one at a time, and the results are printed as a
table and written to ``--out`` for ``compare.py``.

The system has two clocks.  Host wall-clock is what optimisation may move;
simulated seconds are the paper's result and must repeat bit for bit.
Every repetition's simulated fingerprint is checked against the committed
expectation (seeds 42 and 1337) or, on any other seed, against the warm-up
repetition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
EXPECTED_PATH = HERE / "expected_sim.json"
EXPECTED_SEEDS = (42, 1337)

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_REPS = 5
SETUP_SAMPLES = 2
"""The first repetitions (warm-up included) redo the whole set-up, data
generation included, and ``setup_s`` is their median; later repetitions
reuse the generated inputs and only rebuild the database."""

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]
}


def median(values):
    """The median; exact counts that never moved keep their integer type."""
    values = sorted(values)
    return values[0] if values[0] == values[-1] else statistics.median(values)


# ------------------------------------------------------------- measurement


def mismatched_ops(fingerprint: dict, reference: dict) -> int:
    """Operations of one repetition whose simulated outcome is wrong."""
    groups, expected = fingerprint["groups"], reference["groups"]
    total = sum(group[1] for group in groups)
    state = fingerprint["state"]
    if len(groups) != len(expected) or any(
        reference["state"].get(key) != value for key, value in state.items()
    ):
        return max(total, 1)
    failed = 0
    for (label, ops, value, rows), (ref_label, _, ref_value, ref_rows) in zip(
        groups, expected
    ):
        rows_differ = rows and ref_rows and rows != ref_rows
        if label != ref_label or value != ref_value or rows_differ:
            failed += ops
    return failed


class Measurement:
    """One workload, measured in this process."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        from workloads import WORKLOADS

        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name](seed, quick)
        self.reference: dict | None = None
        if not quick and EXPECTED_PATH.exists():
            expected = json.loads(EXPECTED_PATH.read_text())
            self.reference = expected.get(str(seed), {}).get(name)
        self.inputs = None
        self.setup_samples: list[float] = []
        self.setup_parts: list[dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.ops = 1
        self.sim_values: set[str] = set()
        self.counts: dict[str, float] = {}

    def _set_up(self):
        """A fresh database; the first few times, fresh inputs as well."""
        workload = self.workload
        full = len(self.setup_samples) < SETUP_SAMPLES
        gc.collect()  # the previous repetition's database goes first
        begin = time.perf_counter()
        if full:
            self.inputs = None  # release the previous copy before regrowing
            self.inputs = workload.prepare()
        state = workload.fresh(self.inputs)
        elapsed = time.perf_counter() - begin
        if full:
            self.setup_samples.append(elapsed)
            self.setup_parts.append(dict(workload.setup_parts))
        return state

    def repetition(self, collect: bool = False, recorder=None):
        """Set up, run the timed region once, check it.

        Returns ``(host seconds, outcome)``; the outcome is ``None`` when
        the workload raised (every operation of the repetition failed).
        """
        state = self._set_up()
        gc.collect()
        if recorder is not None:
            recorder.install()
        begin = time.perf_counter()
        try:
            outcome = self.workload.run(state, collect)
        except Exception:
            traceback.print_exc()
            outcome = None
        finally:
            host = time.perf_counter() - begin
            if recorder is not None:
                recorder.uninstall()
        if outcome is None:
            self.attempted += self.ops
            self.failed += self.ops
            return host, None
        self.ops = outcome.ops
        self.attempted += outcome.ops
        fingerprint = outcome.fingerprint()
        if self.reference is None:
            self.reference = fingerprint
        self.failed += mismatched_ops(fingerprint, self.reference)
        self.sim_values.add(repr(outcome.sim_s))
        for key, value in outcome.counts.items():
            if self.counts.setdefault(key, value) != value:
                print(
                    f"{self.name}: count {key} moved between repetitions: "
                    f"{self.counts[key]!r} -> {value!r}",
                    file=sys.stderr,
                )
                self.failed = max(self.failed, 1)
        return host, outcome

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.sim_values) == 1


def measure(name: str, args) -> dict:
    """Run one workload here; returns its ledger entry."""
    from layers import resolve_boundaries

    resolve_boundaries()  # a moved boundary fails every run, traced or not
    m = Measurement(name, args.seed, args.quick)
    _, warmup = m.repetition(collect=True)
    if warmup is None:
        raise SystemExit(f"{name}: the warm-up repetition raised")

    # Untraced repetitions: the end-to-end numbers always come from these.
    # A traced run gives them half of --seconds and the traced ones the rest.
    host_samples: list[float] = []
    query_ms: dict[str, list[float]] = {}
    while True:
        host, outcome = m.repetition()
        if outcome is None:
            break
        host_samples.append(host)
        for label, ms in outcome.query_host_ms.items():
            query_ms.setdefault(label, []).append(ms)
        if args.reps is not None:
            if len(host_samples) >= args.reps:
                break
        elif sum(host_samples) >= args.seconds / (2 if args.trace else 1):
            break
    if not host_samples:
        raise SystemExit(f"{name}: no timed repetition completed")
    host_s = median(host_samples)

    entry: dict = {
        "seed": args.seed,
        "reps": len(host_samples),
        "ops": m.ops,
        "sim_s": repr(warmup.sim_s),
        "fingerprint": warmup.fingerprint(),
    }
    if not args.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rates = [m.ops / seconds for seconds in host_samples]
        entry["end_to_end"] = {
            metric: {"value": value, "unit": UNITS[metric], "samples": samples}
            for metric, value, samples in (
                ("setup_s", median(m.setup_samples), m.setup_samples),
                ("host_s", host_s, host_samples),
                ("ops_per_host_s", m.ops / host_s, rates),
                ("peak_rss_mb", rss_mb, []),
            )
        }
    else:
        entry["per_layer"] = traced(m, args, host_s, query_ms, warmup.sim_s)
    entry.update(correct=m.correct, attempted=m.attempted, failed=m.failed)
    return entry


def traced(m: Measurement, args, host_s, query_ms, sim_s) -> dict:
    """The traced repetitions: host time attributed to layers."""
    from layers import SpanRecorder

    traced_hosts: list[float] = []
    per_rep: list[dict[str, float]] = []
    while True:
        recorder = SpanRecorder()
        host, outcome = m.repetition(recorder=recorder)
        if outcome is None:
            raise SystemExit(f"{m.name}: the traced repetition raised")
        traced_hosts.append(host)
        values: dict[str, float] = {}
        layer_self = 0.0
        for layer, totals in recorder.layer_totals().items():
            layer_self += totals["self_s"]
            for key, value in totals.items():
                values[f"{layer}.{key}"] = value
        calls, seconds = recorder.name_totals()
        values["tpch.plan_build_s"] = seconds.get("Database.build_plan", 0.0)
        values["db.engine.ops"] = calls.get("Database.start_query", 0)
        values["db.engine.steps"] = calls.get("QueryExecution.step", 0)
        values["bench.self_closure"] = layer_self / host
        per_rep.append(values)
        if args.reps is not None or sum(traced_hosts) >= args.seconds / 2:
            break
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write_chrome(
        OUT_DIR / f"{m.name}.trace.json", label=f"e2e:{m.name} seed {m.seed}"
    )

    metrics = {
        key: median(values[key] for values in per_rep) for key in per_rep[0]
    }
    for part in ("generate_s", "load_s"):
        metrics[f"tpch.{part}"] = median(
            parts[part] for parts in m.setup_parts
        )
    metrics["bench.trace_overhead"] = median(traced_hosts) / host_s
    metrics["sim_s"] = sim_s
    metrics.update(m.counts)
    for label, samples in query_ms.items():
        metrics[f"db.engine.query_host_ms.{label}"] = median(samples)
    declared = [metric["name"] for metric in SPEC["per_layer"]]
    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    # A layer or counter this workload never touches reads 0; the ledger
    # marks it absent so the smoke test can tell it from a measured zero.
    return {
        metric: (
            {"value": metrics[metric], "unit": UNITS[metric]}
            if metric in metrics
            else {"value": 0, "unit": UNITS[metric], "absent": True}
        )
        for metric in declared
    }


def run_single(args) -> int:
    (name,) = args.workload
    entry = measure(name, args)
    if args.out:
        write_ledger(args.out, args, {name: entry})
    section = entry.get("per_layer") or entry["end_to_end"]
    print(
        json.dumps(
            {
                "correct": entry["correct"],
                "attempted": entry["attempted"],
                "failed": entry["failed"],
                "metrics": {
                    metric: {"value": cell["value"], "unit": cell["unit"]}
                    for metric, cell in section.items()
                },
            }
        )
    )
    return 0


# ------------------------------------------------------------------ ledger


def write_ledger(path, args, workloads: dict) -> None:
    ledger = {
        "meta": {
            "seed": args.seed,
            "quick": args.quick,
            "python": platform.python_version(),
            "machine": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "workloads": workloads,
    }
    pathlib.Path(path).write_text(json.dumps(ledger, indent=1) + "\n")


def run_child(name: str, args, seed: int, trace: int) -> dict:
    """One workload in a subprocess of its own (``nproc`` is 2: one at a
    time); returns its ledger entry."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--trace", str(trace),
        "--out", str(out),
    ]
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    else:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())["workloads"][name]


def run_ledger(args) -> int:
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    if args.regen_expected:
        expected = {
            str(seed): {
                name: run_child(name, args, seed, 0)["fingerprint"]
                for name in names
            }
            for seed in EXPECTED_SEEDS
        }
        if EXPECTED_PATH.exists():
            merged = json.loads(EXPECTED_PATH.read_text())
            for seed, entries in expected.items():
                merged.setdefault(seed, {}).update(entries)
            expected = merged
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
        print(f"rewrote {EXPECTED_PATH}")
        return 0

    workloads = {}
    for name in names:
        entry = run_child(name, args, args.seed, 0)
        if args.trace:
            layered = run_child(name, args, args.seed, 1)
            entry["per_layer"] = layered["per_layer"]
            for key in ("attempted", "failed"):
                entry[key] += layered[key]
            entry["correct"] = entry["correct"] and layered["correct"]
        workloads[name] = entry
        print_entry(name, entry)
    if args.out:
        write_ledger(args.out, args, workloads)
    return 0 if all(entry["correct"] for entry in workloads.values()) else 1


def print_entry(name: str, entry: dict) -> None:
    print(
        f"{name}: n={entry['reps']} ops={entry['ops']} "
        f"sim_s={entry['sim_s']} (simulated, exact) "
        f"fail_share={entry['failed']}/{entry['attempted']} "
        f"correct={entry['correct']}"
    )
    for metric, cell in entry["end_to_end"].items():
        print(f"  {metric:<40} {cell['value']:>14.4f} {cell['unit']}")
    for metric, cell in entry.get("per_layer", {}).items():
        if cell["value"]:
            print(f"  {metric:<40} {cell['value']:>14.6g} {cell['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--reps", type=int, help=f"timed repetitions (default {DEFAULT_REPS})"
    )
    parser.add_argument(
        "--seconds", type=float,
        help="repeat until the timed regions add up to this many seconds",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add the traced repetition and report the per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="every scale and count / 5, one repetition, no expectations",
    )
    parser.add_argument("--out", metavar="FILE", help="write the ledger JSON")
    parser.add_argument(
        "--regen-expected", action="store_true",
        help=f"rewrite expected_sim.json for seeds {EXPECTED_SEEDS}",
    )
    args = parser.parse_args(argv)
    if args.regen_expected:
        args.quick, args.reps, args.seconds = False, 1, None
    elif args.quick and args.reps is None and args.seconds is None:
        args.reps = 1
    elif args.reps is None and args.seconds is None:
        args.reps = DEFAULT_REPS

    try:
        import repro  # noqa: F401
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the system under test: {exc}", file=sys.stderr)
        return 2
    for name in args.workload or ():
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    if args.workload and len(args.workload) == 1 and not args.regen_expected:
        return run_single(args)
    return run_ledger(args)


if __name__ == "__main__":
    raise SystemExit(main())
