#!/usr/bin/env python
"""Noise-aware perf-regression gate over the committed baselines.

Compares a *fresh* run of a benchmark suite (``--suite parallel`` =
``benchmarks/bench_parallel_baseline.py`` vs ``BENCH_parallel.json``,
``--suite codegen`` = ``benchmarks/bench_codegen_v2.py`` vs
``BENCH_codegen.json``, or any two baseline files via ``--baseline`` /
``--fresh``), phase by phase, using :mod:`repro.obs.regress`: a phase is only
flagged when its median moved beyond ``max(--threshold, --noise-mult ×
observed relative dispersion)``. Both the v2 (median/MAD phases) and the
legacy v1 (scalar) baseline schemas load.

Typical invocations::

    # CI (report-only: prints the table, exit 0 unless files are broken)
    python tools/bench_regress.py --report-only

    # Local hard gate
    python tools/bench_regress.py --fail

    # Compare two existing snapshots (e.g. profiler on vs off)
    python tools/bench_regress.py --baseline off.json --fresh on.json \
        --threshold 0.05 --report-only

Without ``--fresh``, the baseline benchmark is run in a subprocess
(``REPRO_BASELINE_OUT`` pointed at a temp file) inheriting the current
environment — so ``REPRO_BENCH_TINY=1`` produces a tiny fresh run, which
is only comparable against a tiny baseline (workload compatibility is
checked; incompatible workloads exit 2, they are not "regressions").
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.regress import (  # noqa: E402
    DEFAULT_NOISE_MULT,
    DEFAULT_THRESHOLD,
    compare_runs,
    has_regressions,
    load_baseline,
    render_findings,
)

#: Benchmark suites the gate knows how to rerun: suite name ->
#: (baseline script, committed snapshot at the repo root).
SUITES = {
    "parallel": (
        REPO_ROOT / "benchmarks" / "bench_parallel_baseline.py",
        REPO_ROOT / "BENCH_parallel.json",
    ),
    "codegen": (
        REPO_ROOT / "benchmarks" / "bench_codegen_v2.py",
        REPO_ROOT / "BENCH_codegen.json",
    ),
}


def run_fresh_baseline(script: Path, out_path: Path) -> None:
    """Run a suite's baseline benchmark in a subprocess, writing ``out_path``."""
    env = dict(os.environ)
    env["REPRO_BASELINE_OUT"] = str(out_path)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, str(script)],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench_regress.py",
        description="Noise-aware comparison of parallel-baseline snapshots.",
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="parallel",
        help="benchmark suite: which script to rerun and which committed "
        "snapshot to compare against (default: parallel)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed snapshot to compare against "
        "(default: the --suite's BENCH_*.json)",
    )
    parser.add_argument(
        "--fresh",
        default=None,
        help="fresh snapshot; omitted = run the baseline benchmark now",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"hard floor on the allowed relative delta (default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--noise-mult",
        type=float,
        default=DEFAULT_NOISE_MULT,
        help="multiplier on observed relative dispersion "
        f"(default {DEFAULT_NOISE_MULT})",
    )
    gate = parser.add_mutually_exclusive_group()
    gate.add_argument(
        "--report-only",
        action="store_true",
        help="always exit 0 on a completed comparison (CI mode)",
    )
    gate.add_argument(
        "--fail",
        action="store_true",
        help="exit 1 when any phase regressed (local hard gate)",
    )
    args = parser.parse_args(argv)

    script, default_baseline = SUITES[args.suite]
    base_path = Path(args.baseline) if args.baseline else default_baseline
    if not base_path.exists():
        print(f"baseline not found: {base_path}", file=sys.stderr)
        return 2
    base = load_baseline(base_path)

    if args.fresh is not None:
        fresh_path = Path(args.fresh)
        if not fresh_path.exists():
            print(f"fresh snapshot not found: {fresh_path}", file=sys.stderr)
            return 2
        fresh = load_baseline(fresh_path)
    else:
        with tempfile.TemporaryDirectory(prefix="bench_regress_") as tmp:
            out = Path(tmp) / "fresh.json"
            print(f"running fresh {args.suite} baseline benchmark...", flush=True)
            run_fresh_baseline(script, out)
            fresh = load_baseline(out)

    if not base.compatible_with(fresh):
        print(
            "workloads differ — comparison is meaningless:\n"
            f"  baseline: {base.workload}\n"
            f"  fresh:    {fresh.workload}",
            file=sys.stderr,
        )
        return 2

    findings = compare_runs(
        base, fresh, threshold=args.threshold, noise_mult=args.noise_mult
    )
    print(render_findings(findings))
    if has_regressions(findings) and args.fail:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
