#!/usr/bin/env python3
"""Compare benchmark records, refusing records that are not comparable.

Usage (from the repository root)::

    python3 e2ebench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each argument is a record written under ``.bench_out/`` by ``run.py``.
Every record must share one host class (CPU count, Python, NumPy, BLAS
and its thread pinning), one workload and its constants, and one trace
mode; otherwise the comparison is refused with exit code 2. Commits and
seeds may differ. For each metric the medians of both sides are printed
with their ratio and, for end-to-end metrics, whether the new median is
worse than the base by more than the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
HOST_CLASS_KEYS = ("cpu_count", "python", "numpy", "blas", "blas_threads")


def refusal_reasons(records: List[dict]) -> List[str]:
    """Why ``records`` may not be compared (empty when they may)."""
    reasons = []
    first = records[0]
    for other in records[1:]:
        for key in HOST_CLASS_KEYS + ("workload", "constants"):
            a, b = first["provenance"].get(key), other["provenance"].get(key)
            if a != b:
                reasons.append(f"{key}: {a!r} != {b!r}")
        if first["trace"] != other["trace"]:
            reasons.append(f"trace: {first['trace']} != {other['trace']}")
    return reasons


def compare(base: List[dict], new: List[dict], spec: dict) -> List[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    for name in base[0]["result"]["metrics"]:
        a = statistics.median(r["result"]["metrics"][name]["value"] for r in base)
        b = statistics.median(r["result"]["metrics"][name]["value"] for r in new)
        ratio = b / a if a else float("nan")
        verdict = ""
        if name in bounds:
            worse = ratio - 1.0 if better[name] == "lower" else 1.0 - ratio
            verdict = "REGRESSION" if worse > bounds[name]["bound"] else "ok"
        lines.append(f"{name:30s} {a:14.6g} {b:14.6g} {ratio:8.4f} {verdict}")
    return lines


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base_paths, new_paths = argv[:split], argv[split + 1 :]
    if not base_paths or not new_paths:
        print(__doc__, file=sys.stderr)
        return 2
    base = [json.loads(Path(p).read_text()) for p in base_paths]
    new = [json.loads(Path(p).read_text()) for p in new_paths]
    reasons = refusal_reasons(base + new)
    if reasons:
        print("refused: records are not comparable", file=sys.stderr)
        for reason in reasons:
            print(f"  {reason}", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    print(f"{'metric':30s} {'base':>14s} {'new':>14s} {'new/base':>8s}")
    for line in compare(base, new, spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
