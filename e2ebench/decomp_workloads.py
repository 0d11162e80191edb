"""Decomposition workloads: a fixed-iteration solve per sample.

``hoqri-contact``: serial HOQRI on the contact-school stand-in (order 5,
R 8), where S³TTMcTC is nearly all of the solve. ``hooi-trivago-proc``:
HOOI on the trivago-clicks stand-in (order 6, dim 8000, R 4) through the
process backend with ``nproc`` workers on one persistent context; the SVD
of the expanded ``Y_(1)`` dominates each iteration.

Every solve uses ``tol=0`` and a seeded random initialisation, so a
sample is the same work on any host. Only public entry points are called,
with the program's defaults for every kernel, sharding, reduction and
memoization choice.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import ExecContext, MemoryBudget, hooi, hoqri, load_dataset
from repro.core import get_plan
from repro.decomp import initialize
from repro.parallel import parallel_s3ttmc
from repro.parallel.shm import live_segments
from repro.serve import JobSpec, predict_job_peak_bytes

import probes
import serve_workload
from common import (
    MB,
    Outcome,
    Tracer,
    check,
    fresh_copy,
    input_digest,
    median,
    perf,
    rss_peak_mb,
    self_time_metrics,
)


@dataclass(frozen=True)
class DecompWorkload:
    """Constants of one decomposition workload (recorded in provenance)."""

    name: str
    dataset: str
    algorithm: str  # "hoqri" | "hooi"
    rank: int
    iters: int
    execution: str  # "serial" | "process"
    setup_reps: int
    probe_reps: int

    def constants(self) -> dict:
        out = asdict(self)
        out["n_workers"] = self.n_workers
        return out

    @property
    def n_workers(self) -> Optional[int]:
        return os.cpu_count() if self.execution == "process" else None

    def context(self) -> ExecContext:
        return ExecContext(
            execution=self.execution, n_workers=self.n_workers, budget=MemoryBudget()
        )

    def solve(self, tensor, ctx: ExecContext, seed: int):
        driver = hoqri if self.algorithm == "hoqri" else hooi
        return driver(
            tensor, self.rank, max_iters=self.iters, tol=0.0, seed=seed, ctx=ctx
        )


HOQRI_CONTACT = DecompWorkload(
    name="hoqri-contact",
    dataset="contact-school",
    algorithm="hoqri",
    rank=8,
    iters=4,
    execution="serial",
    setup_reps=3,  # per solve
    probe_reps=5,
)

HOOI_TRIVAGO = DecompWorkload(
    name="hooi-trivago-proc",
    dataset="trivago-clicks",
    algorithm="hooi",
    rank=4,
    iters=1,
    execution="process",
    setup_reps=3,
    probe_reps=3,
)


def _cold_setup(w: DecompWorkload, tensor, factor: np.ndarray) -> float:
    """Cold set-up from a fresh copy: the serial plan build, or (process)
    backend start, tensor shipping, worker plans and the first S³TTMc."""
    copy = fresh_copy(tensor)
    if w.execution == "serial":
        tick = perf()
        get_plan(copy)
        return perf() - tick
    with w.context() as ctx:
        tick = perf()
        parallel_s3ttmc(copy, factor, ctx=ctx)
        return perf() - tick


def _same(a, b) -> bool:
    return np.array_equal(a.factor, b.factor) and np.array_equal(a.core.data, b.core.data)


def _timed_solves(
    w: DecompWorkload,
    tensor,
    ctx: ExecContext,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    between: Optional[Callable[[], None]],
) -> Tuple[List[float], List[float], list]:
    """Solve until ``seconds`` are spent (another solve starts only if at
    least half of it fits), calling ``between`` after each solve; with a
    tracer, alternate untraced and traced solves (at least two of each).
    Returns (untraced seconds, traced seconds, results)."""
    plain: List[float] = []
    traced: List[float] = []
    results = []
    deadline = perf() + seconds
    i = 0
    while True:
        start = perf()
        if tracer is not None and i % 2 == 1:
            child = ctx.derive(collector=tracer.collector)
            if ctx.backend is not None:
                child.adopt_backend(ctx.backend)
            try:
                tick = perf()
                with tracer.span("bench:solve", sample=i):
                    with tracer.span(f"decomp:{w.algorithm}", sample=i):
                        result = w.solve(tensor, child, seed)
                traced.append(perf() - tick)
            finally:
                child.release_backend()
        else:
            tick = perf()
            result = w.solve(tensor, ctx, seed)
            plain.append(perf() - tick)
        results.append(result)
        i += 1
        if between is not None:
            between()
        enough = tracer is None or (len(plain) >= 2 and len(traced) >= 2)
        if perf() + (perf() - start) / 2 >= deadline and enough:
            return plain, traced, results


def run(w: DecompWorkload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (outcome, constants, input digest, errors)."""
    tensor = load_dataset(w.dataset, seed=seed)
    init = initialize(tensor, w.rank, "random", np.random.default_rng(seed))
    digest = input_digest([tensor], init)
    check(
        input_digest([fresh_copy(tensor)], init) == digest,
        "fresh tensor copy is not content-identical",
    )
    errors: List[str] = []

    setup: List[float] = []

    def sample_setup() -> None:
        setup.extend(_cold_setup(w, tensor, init) for _ in range(w.setup_reps))

    # Serial set-up is sampled between solves, over the whole run like the
    # solves themselves. A process set-up starts a second backend, so it
    # runs before the persistent one exists (two would double the workers).
    serial = w.execution == "serial"
    if not serial:
        sample_setup()
        check(not live_segments(), "shared-memory segments outlived a set-up context")

    tracer = Tracer(True) if trace else None
    ctx = w.context()
    with ctx:
        warm = w.solve(tensor, ctx, seed)
        plain, traced, results = _timed_solves(
            w, tensor, ctx, seed, seconds, tracer, sample_setup if serial else None
        )
        budget_peak = ctx.budget.peak
    rss = rss_peak_mb()  # after close: the workers are reaped and counted
    check(not live_segments(), "shared-memory segments outlived the solve context")

    failed = 0
    for result in results:
        good = (
            result.iterations == w.iters
            and all(math.isfinite(v) for v in result.trace.objective)
            and _same(result, warm)
        )
        failed += not good
    if failed:
        errors.append(
            f"{failed} of {len(results)} solves were not bitwise-equal to the "
            f"first, finite and {w.iters} iterations long"
        )
    if w.execution != "serial":
        reference = w.solve(fresh_copy(tensor), ExecContext(), seed)
        # Singular vectors are defined up to sign, and the serial and
        # parallel reductions differ in the last bits, so LAPACK may pick
        # the other sign for a column: align signs, then compare.
        signs = np.sign(np.sum(warm.factor * reference.factor, axis=0))
        if not np.allclose(warm.factor * signs, reference.factor, rtol=1e-6, atol=1e-9):
            errors.append("process-backend factor is not allclose to serial HOOI")

    if not trace:
        metrics = {"setup_s": median(setup), "work_s": median(plain), "rss_peak_mb": rss}
    else:
        metrics = _layer_metrics(
            w, tensor, seed, warm, results, plain, traced, tracer, budget_peak, errors
        )
    samples = {"setup_s": setup, "work_s": plain, "traced_work_s": traced}
    outcome = Outcome(metrics, len(results), failed, tracer, samples)
    return outcome, w.constants(), digest, errors


def _layer_metrics(
    w: DecompWorkload,
    tensor,
    seed: int,
    warm,
    results: list,
    plain: List[float],
    traced: List[float],
    tracer: Tracer,
    budget_peak: int,
    errors: List[str],
) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    metrics.update(probes.core_probe(tensor, warm.factor, w.probe_reps))
    metrics.update(probes.phase_metrics(results))
    metrics.update(
        probes.parallel_probe(
            tensor, warm.factor, metrics["core.s3ttmc_s"], w.probe_reps
        )
    )
    metrics["runtime.budget_peak_mb"] = budget_peak / MB
    spec = JobSpec(
        kind=w.algorithm,
        tensor=tensor,
        rank=w.rank,
        max_iters=w.iters,
        tol=0.0,
        seed=seed,
    )
    metrics["perfmodel.admission_ms"] = probes.admission_ms(
        [spec], w.execution, w.n_workers, reps=200
    )
    ratio = predict_job_peak_bytes(
        spec, execution=w.execution, n_workers=w.n_workers
    ) / max(1, budget_peak)
    metrics["perfmodel.peak_ratio_median"] = ratio
    metrics["perfmodel.peak_ratio_min"] = ratio
    # The solve never calls the serve layer, so the serve-mix stream is
    # served here as a probe: one warm-up, one untraced and one traced
    # lifetime, checked like the serve-mix workload's.
    served, _constants, _digest, serve_errors = serve_workload.run(
        serve_workload.SERVE_MIX, seed, 0.0, True
    )
    errors += serve_errors
    metrics.update({name: served.metrics[name] for name in probes.SERVE_METRICS})
    metrics.update(self_time_metrics(tracer, "bench:solve"))
    metrics["obs.tracing_overhead"] = median(traced) / median(plain)
    return metrics
