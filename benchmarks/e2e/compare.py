#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x end-to-end metric: A, B, the relative change in the
metric's "worse" direction, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``         — B is no worse than A by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — the repetition spread of A or B (distance between the
  first and third quartile of the timed repetitions, as a share of their
  median) is wider than the bound, so the two cannot be told apart.

The exact quantities (``sim_s``, failed operations) must be equal; any
difference is ``worse``.  Quick ledgers carry no bounds: their rows are
informational.  Exit status is non-zero on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def spread(samples: list[float]) -> float:
    """Quartile distance of the repetitions as a share of their median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, delta, bound, verdict)``."""
    bounded = not (a["meta"]["quick"] or b["meta"]["quick"])
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        left, right = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            x, y = left["end_to_end"][name], right["end_to_end"][name]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            delta = sign * (y["value"] - x["value"]) / x["value"]
            if not bounded:
                verdict = "-"
            elif max(spread(x["samples"]), spread(y["samples"])) > bound:
                verdict = "unresolved"
            else:
                verdict = "worse" if delta > bound else "ok"
            rows.append(
                (workload, name, x["value"], y["value"], delta, bound, verdict)
            )
        for name in ("sim_s", "failed"):
            same = left[name] == right[name]
            if name == "sim_s" and left["seed"] != right["seed"]:
                continue  # simulated results only compare on one seed
            rows.append(
                (
                    workload, name, left[name], right[name],
                    0.0 if same else float("nan"), 0.0,
                    "ok" if same else "worse",
                )
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text()), spec
    )
    print(
        f"{'workload':<16}{'metric':<16}{'A':>20}{'B':>20}"
        f"{'worse by':>10}{'bound':>7}  verdict"
    )
    for workload, name, x, y, delta, bound, verdict in rows:
        x, y = (f"{v:.4f}" if isinstance(v, float) else str(v) for v in (x, y))
        print(
            f"{workload:<16}{name:<16}{x:>20}{y:>20}"
            f"{delta:>+10.1%}{bound:>7.0%}  {verdict}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
