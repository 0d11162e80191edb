"""Per-layer probes: timed direct calls into one layer's public entry point.

Each probe runs outside the end-to-end measurements (traced runs only)
and starts from a content-identical fresh tensor copy where the layer
memoizes state on the tensor object.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Sequence

import numpy as np

from repro import ExecContext, KernelStats, SparseSymmetricTensor, s3ttmc, s3ttmc_tc
from repro.core import get_plan
from repro.parallel import ParallelRunReport, parallel_s3ttmc
from repro.serve import TenantQuota, check_admission

from common import MB, check, fresh_copy, median, perf

#: Serve-layer and load-generator metrics (from the serve-mix stream).
SERVE_METRICS = (
    "serve.submit_ms",
    "serve.submit_growth",
    "serve.queue_wait_ms",
    "serve.overhead_ms",
    "serve.hit_ms",
    "serve.miss_ms",
    "serve.cache_hit_share",
    "serve.coalesced_share",
    "serve.latency_p50_ms",
    "serve.latency_p99_ms",
    "gen.lag_ms",
    "gen.lag_p99_ms",
)

#: Driver phase (``DecompositionResult.timer``) behind each decomp metric.
PHASES = {
    "decomp.kernel_s": ("s3ttmc",),
    "decomp.svd_s": ("svd",),
    "decomp.qr_s": ("qr",),
    "decomp.core_s": ("core", "times_core"),
    "decomp.objective_s": ("objective",),
}


def core_probe(
    tensor: SparseSymmetricTensor, factor: np.ndarray, reps: int
) -> Dict[str, float]:
    """Serial kernel seconds, cold plan build and exact kernel counts."""
    plan_s = []
    for _ in range(reps):
        copy = fresh_copy(tensor)
        tick = perf()
        get_plan(copy)
        plan_s.append(perf() - tick)
    warm = fresh_copy(tensor)
    stats = KernelStats()
    s3ttmc(warm, factor, stats=stats, ctx=ExecContext())
    kernel_s, tc_s = [], []
    for _ in range(reps):
        tick = perf()
        s3ttmc(warm, factor, ctx=ExecContext())
        kernel_s.append(perf() - tick)
        tick = perf()
        s3ttmc_tc(warm, factor, ctx=ExecContext())
        tc_s.append(perf() - tick)
    return {
        "core.s3ttmc_s": median(kernel_s),
        "core.s3ttmc_tc_s": median(tc_s),
        "core.plan_build_s": median(plan_s),
        "core.flops": float(stats.kernel_flops),
        # Computed from the lattice sizes, not measured.
        "core.intermediate_mb": stats.intermediate_bytes / MB,
    }


def parallel_probe(
    tensor: SparseSymmetricTensor,
    factor: np.ndarray,
    serial_s3ttmc_s: float,
    reps: int,
) -> Dict[str, float]:
    """Process-backend S³TTMc on a fresh context with ``nproc`` workers."""
    copy = fresh_copy(tensor)
    n_workers = os.cpu_count() or 1
    with ExecContext(execution="process", n_workers=n_workers) as ctx:
        tick = perf()
        first = parallel_s3ttmc(copy, factor, ctx=ctx)
        start_s = perf() - tick
        times, reports = [], []
        for _ in range(reps):
            report = ParallelRunReport()
            tick = perf()
            y = parallel_s3ttmc(copy, factor, ctx=ctx, report=report)
            times.append(perf() - tick)
            reports.append(report)
            check(
                np.array_equal(y.data, first.data),
                "parallel S3TTMc is not bitwise repeatable",
            )
    report = reports[len(reports) // 2]
    tensor_bytes = copy.indices.nbytes + copy.values.nbytes
    if report.sharding == "owned":
        shipped = tensor_bytes  # disjoint shards: every non-zero ships once
    else:
        shipped = tensor_bytes * report.n_workers
    shipped += factor.nbytes * report.n_workers
    parallel_s = median(times)
    return {
        "parallel.start_s": start_s,
        "parallel.s3ttmc_s": parallel_s,
        "parallel.speedup": serial_s3ttmc_s / parallel_s,
        "parallel.utilization": median([r.utilization() for r in reports]),
        "parallel.critical_path_s": median([r.critical_path_seconds() for r in reports]),
        "parallel.reduce_s": median([r.reduce_seconds for r in reports]),
        "parallel.retries": float(sum(r.retries for r in reports)),
        "parallel.respawns": float(sum(r.respawns for r in reports)),
        "parallel.shipped_mb": shipped / MB,
    }


def admission_ms(specs: Sequence, execution: str, n_workers, reps: int = 1) -> float:
    """Median seconds of one ``check_admission`` call, in milliseconds."""
    quota = TenantQuota()
    times = []
    for _ in range(reps):
        for spec in specs:
            tick = perf()
            check_admission(spec, quota, execution=execution, n_workers=n_workers)
            times.append(perf() - tick)
    return median(times) * 1e3


def phase_metrics(results: Iterable) -> Dict[str, float]:
    """Median per-result seconds of each driver phase (0 when absent)."""
    results = list(results)
    out = {}
    for metric, phases in PHASES.items():
        out[metric] = median(
            [sum(r.timer.totals.get(p, 0.0) for p in phases) for r in results]
        )
    return out
