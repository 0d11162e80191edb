"""``serve-mix``: whole service lifetimes of a fixed job count.

Each lifetime starts an in-process :class:`DecompositionService` cold
(default execution and pool, fresh tensor copies so no plan is memoized),
warms it up, serves a fixed stream of jobs in two phases and closes it:

* **open loop** — independent users: jobs are due at a fixed offered
  rate whether or not earlier ones finished; latency runs from each job's
  due time, and the generator's lateness is recorded;
* **closed loop** — ``nproc`` clients that each wait for a reply before
  sending the next job.

The stream is planned from the seed, so the benchmark knows exactly which
jobs must be cache hits (repeats of warm-up jobs) and which must be
coalesced (twins submitted in the same loop step as their primary).

The job count per lifetime is fixed on purpose: ``submit()`` counts a
tenant's queued jobs by scanning every record the service ever held, so
its cost grows with the lifetime. A run that served "as many jobs as fit
in N seconds" would measure a different amount of that growth on every
host; a fixed count measures the same amount everywhere.
"""

from __future__ import annotations

import asyncio
import gc
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import hoqri, random_sparse_symmetric, s3ttmc
from repro.serve import DecompositionService, JobSpec, TenantQuota

import probes
from common import (
    MB,
    Outcome,
    Tracer,
    fresh_copy,
    input_digest,
    median,
    perf,
    percentile,
    rss_peak_mb,
    self_time_metrics,
    tenth_ratio,
)


@dataclass(frozen=True)
class ServeMix:
    """Constants of the served job mix (recorded in provenance)."""

    name: str = "serve-mix"
    pool_size: int = 24  # tensors, Zipf-popular
    zipf_s: float = 1.1
    tenants: int = 4
    hot: int = 8  # warm-up jobs whose exact repeats are cache hits
    # A hot result is re-requested at least every `refresh` jobs, far
    # below the result cache's LRU capacity, so planned hits stay hits.
    refresh: int = 48
    warm_hoqri: int = 2
    n_open: int = 600
    n_closed: int = 2400
    open_rate: float = 400.0  # jobs/s offered: half the closed-loop capacity
    p_unique: float = 0.68
    p_hit: float = 0.15
    p_twin: float = 0.12
    p_hoqri: float = 0.05
    hoqri_rank: int = 3
    hoqri_iters: int = 3
    tenant_memory_mb: int = 256
    tenant_max_queued: int = 100_000
    setup_reps: int = 5

    def constants(self) -> dict:
        out = asdict(self)
        out["clients"] = self.clients
        out["cpus"] = 1  # lifetimes run pinned to one CPU, see _one_cpu()
        return out

    @property
    def clients(self) -> int:
        return os.cpu_count() or 1

    def quotas(self) -> Dict[str, TenantQuota]:
        quota = TenantQuota(
            memory_bytes=self.tenant_memory_mb * 2**20,
            max_queued=self.tenant_max_queued,
        )
        return {f"tenant{t}": quota for t in range(self.tenants)}


SERVE_MIX = ServeMix()


# ---------------------------------------------------------------------------
# The planned stream
# ---------------------------------------------------------------------------


@dataclass
class Job:
    index: int
    cls: str  # "warmup" | "unique" | "hit" | "twin" | "hoqri"
    kind: str  # "s3ttmc" | "hoqri"
    tensor: int
    tenant: str
    factor: Optional[np.ndarray] = None
    seed: Optional[int] = None
    primary: Optional[int] = None  # hit / twin: the job whose result it shares

    @property
    def executed(self) -> bool:
        return self.cls not in ("hit", "twin")

    def spec(self, mix: ServeMix, tensors: list) -> JobSpec:
        if self.kind == "s3ttmc":
            return JobSpec(
                kind="s3ttmc",
                tensor=tensors[self.tensor],
                factor=self.factor,
                tenant=self.tenant,
            )
        return JobSpec(
            kind="hoqri",
            tensor=tensors[self.tensor],
            rank=mix.hoqri_rank,
            max_iters=mix.hoqri_iters,
            tol=0.0,
            seed=self.seed,
            tenant=self.tenant,
        )


@dataclass
class Plan:
    pool: list
    jobs: List[Job]
    warmup: List[Job]
    open_groups: List[List[Job]]  # a group is one job or a twin pair
    closed_groups: List[List[Job]]

    @property
    def measured(self) -> List[Job]:
        return [j for g in self.open_groups + self.closed_groups for j in g]

    def count(self, cls: str) -> int:
        return sum(1 for j in self.jobs if j.cls == cls)

    def digest(self) -> str:
        arrays = []
        for j in self.jobs:
            arrays.append(np.array([j.index, j.tensor, j.seed or 0, j.primary or 0]))
            if j.factor is not None:
                arrays.append(j.factor)
        return input_digest(self.pool, *arrays)


def make_plan(mix: ServeMix, seed: int) -> Plan:
    rng = np.random.default_rng([seed, 0x5E2E])
    pool = []
    for t in range(mix.pool_size):
        # Shapes are fixed per pool slot (only contents follow the seed),
        # so the popular tensors cost the same under every seed.
        order = 3 if t % 2 == 0 else 4
        dim = 24 + (17 * t) % 41
        unnz = 60 + (71 * t) % 181
        pool.append(
            random_sparse_symmetric(order, dim, unnz, seed=int(rng.integers(2**31)))
        )
    popularity = 1.0 / np.arange(1, mix.pool_size + 1) ** mix.zipf_s
    popularity /= popularity.sum()
    tenant_weights = np.arange(mix.tenants, 0, -1, dtype=float)
    tenant_weights /= tenant_weights.sum()
    jobs: List[Job] = []

    def new(cls: str, kind: str, tensor: int, **kw) -> Job:
        tenant = f"tenant{int(rng.choice(mix.tenants, p=tenant_weights))}"
        job = Job(len(jobs), cls, kind, tensor, tenant, **kw)
        jobs.append(job)
        return job

    def kernel_job(cls: str, tensor: int) -> Job:
        rank = int(rng.integers(3, 5))
        factor = rng.standard_normal((pool[tensor].dim, rank))
        return new(cls, "s3ttmc", tensor, factor=factor)

    def hoqri_job(cls: str) -> Job:
        tensor = int(rng.choice(mix.pool_size, p=popularity))
        return new(cls, "hoqri", tensor, seed=int(rng.integers(2**31)))

    warmup = [kernel_job("warmup", t) for t in range(mix.pool_size)]
    warmup += [hoqri_job("warmup") for _ in range(mix.warm_hoqri)]
    hot = warmup[: mix.hot]  # the most popular tensors' warm-up jobs
    hot_weights = popularity[: mix.hot] / popularity[: mix.hot].sum()
    since = {h.index: 0 for h in hot}
    classes = ("unique", "hit", "twin", "hoqri")
    probs = np.array([mix.p_unique, mix.p_hit, mix.p_twin, mix.p_hoqri])
    probs /= probs.sum()

    def groups(n: int) -> List[List[Job]]:
        out: List[List[Job]] = []
        count = 0
        while count < n:
            stale = [h for h in hot if since[h.index] >= mix.refresh]
            cls = "hit" if stale else str(rng.choice(classes, p=probs))
            if cls == "twin" and count + 2 > n:
                cls = "unique"
            if cls == "hit":
                target = stale[0] if stale else hot[int(rng.choice(mix.hot, p=hot_weights))]
                group = [new("hit", "s3ttmc", target.tensor, factor=target.factor,
                             primary=target.index)]
            elif cls == "hoqri":
                group = [hoqri_job("hoqri")]
            else:
                first = kernel_job("unique", int(rng.choice(mix.pool_size, p=popularity)))
                group = [first]
                if cls == "twin":
                    group.append(new("twin", "s3ttmc", first.tensor,
                                     factor=first.factor.copy(), primary=first.index))
            for h in since:
                since[h] += len(group)
            if cls == "hit":
                since[group[0].primary] = 0
            out.append(group)
            count += len(group)
        return out

    open_groups = groups(mix.n_open)
    closed_groups = groups(mix.n_closed)
    return Plan(pool, jobs, warmup, open_groups, closed_groups)


# ---------------------------------------------------------------------------
# One lifetime
# ---------------------------------------------------------------------------


@dataclass
class Lifetime:
    setup_s: float = 0.0
    closed_s: float = 0.0
    results: Dict[int, object] = field(default_factory=dict)
    job_ids: Dict[int, str] = field(default_factory=dict)
    submit_s: List[float] = field(default_factory=list)  # submission order
    open_latency: Dict[int, float] = field(default_factory=dict)
    closed_latency: Dict[int, float] = field(default_factory=dict)
    lag_s: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    hygiene: Dict[str, int] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    statuses: Dict[int, object] = field(default_factory=dict)


async def _lifetime(
    mix: ServeMix, plan: Plan, tracer: Tracer, phases: bool
) -> Lifetime:
    lt = Lifetime()
    tensors = [fresh_copy(t) for t in plan.pool]
    with tracer.span("bench:lifetime", phases=phases) as root:
        parent = root.span_id if root is not None else None

        async def submit(job: Job) -> str:
            spec = job.spec(mix, tensors)
            with tracer.span("serve:submit", parent=parent, job=job.index):
                tick = perf()
                job_id = await svc.submit(spec)
                lt.submit_s.append(perf() - tick)
            lt.job_ids[job.index] = job_id
            return job_id

        async def result(job: Job, job_id: str):
            with tracer.span("serve:result", parent=parent, job=job.index):
                lt.results[job.index] = await svc.result(job_id)

        tick = perf()
        with tracer.span("serve:start", parent=parent):
            svc = DecompositionService(quotas=mix.quotas())
            await svc.start()
        ids = [await submit(job) for job in plan.warmup]
        for job, job_id in zip(plan.warmup, ids):
            await result(job, job_id)
        lt.setup_s = perf() - tick

        if phases:
            await _open_loop(mix, plan, lt, submit, result)
            tick = perf()
            await _closed_loop(mix, plan, lt, submit, result)
            lt.closed_s = perf() - tick

        with tracer.span("serve:close", parent=parent):
            lt.counters = await svc.close()
        lt.hygiene = svc.hygiene()
        if tracer.collector is not None:
            # stats() scans every record, so read it once, after the end.
            lt.stats = svc.stats()
            lt.statuses = {i: svc.status(j) for i, j in lt.job_ids.items()}
    return lt


async def _open_loop(mix, plan, lt, submit, result) -> None:
    waiters = []

    async def wait(job: Job, job_id: str, due: float) -> None:
        await result(job, job_id)
        lt.open_latency[job.index] = perf() - due

    start = perf()
    for i, group in enumerate(plan.open_groups):
        due = start + i / mix.open_rate
        delay = due - perf()
        if delay > 0:
            await asyncio.sleep(delay)
        lt.lag_s.append(max(0.0, perf() - due))
        for job in group:  # a twin follows its primary in the same loop step
            job_id = await submit(job)
            waiters.append(asyncio.create_task(wait(job, job_id, due)))
    await asyncio.gather(*waiters)


async def _closed_loop(mix, plan, lt, submit, result) -> None:
    queue = list(reversed(plan.closed_groups))

    async def client() -> None:
        while queue:
            group = queue.pop()
            tick = perf()
            ids = [await submit(job) for job in group]
            for job, job_id in zip(group, ids):
                await result(job, job_id)
                lt.closed_latency[job.index] = perf() - tick

    await asyncio.gather(*(client() for _ in range(mix.clients)))


def lifetime(mix: ServeMix, plan: Plan, tracer: Tracer, phases: bool = True) -> Lifetime:
    """One cold service lifetime on a fresh event loop and a collected heap,
    so no lifetime pays to collect an earlier one's garbage."""
    gc.collect()
    return asyncio.run(_lifetime(mix, plan, tracer, phases))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _payload(result) -> List[np.ndarray]:
    if hasattr(result, "factor"):  # DecompositionResult
        return [result.factor, result.core.data]
    return [result.data]  # PartiallySymmetricTensor


def _equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(_payload(a), _payload(b)))


class References:
    """Direct driver calls for every executed job, computed once per run."""

    def __init__(self, mix: ServeMix, plan: Plan) -> None:
        tensors = [fresh_copy(t) for t in plan.pool]
        self.results: Dict[int, object] = {}
        self.seconds: Dict[int, float] = {}
        for job in plan.jobs:  # warm-up first, so plans are built before timing
            if not job.executed:
                continue
            tensor = tensors[job.tensor]
            tick = perf()
            if job.kind == "s3ttmc":
                out = s3ttmc(tensor, job.factor)
            else:
                out = hoqri(
                    tensor, mix.hoqri_rank, max_iters=mix.hoqri_iters, tol=0.0,
                    seed=job.seed,
                )
            self.seconds[job.index] = perf() - tick
            self.results[job.index] = out


def verify(plan: Plan, lt: Lifetime, refs: References) -> Tuple[int, List[str]]:
    """Every check one lifetime must pass; returns (jobs whose result is
    missing or wrong, failure messages)."""
    errors = []
    jobs = plan.warmup + plan.measured
    bad = 0
    for job in jobs:
        served = lt.results.get(job.index)
        if served is None:
            bad += 1
        elif job.executed:
            bad += not _equal(served, refs.results[job.index])
        else:
            bad += not _equal(served, lt.results[job.primary])
    if bad:
        errors.append(f"{bad} of {len(jobs)} served results differ from their reference")
    n_hit, n_twin = plan.count("hit"), plan.count("twin")
    executed = sum(1 for j in jobs if j.executed)
    expect = {
        "submitted": len(jobs),
        "completed": executed,
        "cache_hits": n_hit + n_twin,
        "coalesced": n_twin,
        "rejected": 0,
        "failed": 0,
        "cancelled": 0,
        "budgets_undrained": 0,
    }
    for key, want in expect.items():
        if lt.counters.get(key) != want:
            errors.append(f"counter {key} = {lt.counters.get(key)}, planned {want}")
    if lt.hygiene != {"budgets_undrained": 0, "live_segments": 0}:
        errors.append(f"unclean close: {lt.hygiene}")
    return bad, errors


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


@contextmanager
def _one_cpu():
    """Pin this process to one CPU for the duration.

    Every job hops event loop -> worker thread -> event loop. Spread over
    two virtual CPUs, each hop waits for the hypervisor to wake an idle
    CPU, and that wait, not the service, swung lifetimes by up to 2x under
    host load. The service's Python runs under one GIL either way.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run(mix: ServeMix, seed: int, seconds: float, trace: bool):
    """Run lifetimes until ``seconds`` are spent (with tracing: at least one
    untraced and one traced). Returns (outcome, constants, digest, errors)."""
    plan = make_plan(mix, seed)
    untraced = Tracer(False)
    tracer = Tracer(True) if trace else untraced
    setup: List[float] = []
    lifetimes: List[Lifetime] = []
    traced: List[Lifetime] = []
    with _one_cpu():  # lifted again before the layer probes
        # One untimed lifetime first: the benchmark process's own first-run
        # costs (lazy imports, allocator growth) are not the service's.
        warm = lifetime(mix, plan, untraced)
        rss = rss_peak_mb()  # before the references: the same work in every run
        refs = References(mix, plan)
        failed, errors = verify(plan, warm, refs)
        warm_hoqri = [warm.results[j.index] for j in plan.jobs if j.cls == "hoqri"]
        deadline = perf() + seconds
        while True:
            use_trace = trace and len(lifetimes) % 2 == 1
            tick = perf()
            lt = lifetime(mix, plan, tracer if use_trace else untraced)
            took = perf() - tick
            (traced if use_trace else lifetimes).append(lt)
            bad, found = verify(plan, lt, refs)
            failed += bad
            errors += found
            lt.results.clear()  # checked; holding them would slow later GCs
            # Set-up-only lifetimes between measured ones, so set-up is
            # sampled over the whole run like the work it precedes.
            setup.append(lt.setup_s)
            setup += [
                lifetime(mix, plan, untraced, phases=False).setup_s
                for _ in range(mix.setup_reps)
            ]
            # Stop unless at least half of another lifetime fits the run.
            if perf() + took / 2 >= deadline and (not trace or traced):
                break
    attempted = len(plan.warmup + plan.measured) * (1 + len(lifetimes) + len(traced))

    if not trace:
        metrics = {
            "setup_s": median(setup),
            "work_s": median([lt.closed_s for lt in lifetimes]),
            "rss_peak_mb": rss,
        }
    else:
        metrics = _layer_metrics(
            mix, plan, warm, lifetimes[0], traced[0], warm_hoqri, refs, tracer
        )
    samples = {
        "setup_s": setup,
        "work_s": [lt.closed_s for lt in lifetimes],
        "traced_work_s": [lt.closed_s for lt in traced],
    }
    outcome = Outcome(metrics, attempted, failed, tracer if trace else None, samples)
    return outcome, mix.constants(), plan.digest(), errors


def _layer_metrics(mix, plan, warm, lt, traced, hoqri_results, refs, tracer) -> Dict[str, float]:
    """Per-layer metrics. Timings come from the untraced lifetimes: the
    open-loop samples of ``warm`` and ``lt`` are pooled (1,200 of them, so
    p99 has 12 beyond it), everything else is read from ``lt``."""
    jobs = {j.index: j for j in plan.jobs}
    open_lat, lag = [], []
    by_class: Dict[str, List[float]] = {}
    for x in (warm, lt):
        lag += x.lag_s
        for idx, lat in x.open_latency.items():
            open_lat.append(lat)
            by_class.setdefault(jobs[idx].cls, []).append(lat)
    executed = [i for i in lt.job_ids if jobs[i].executed]
    statuses = traced.statuses
    queue_wait = [
        statuses[i].started_at - statuses[i].submitted_at
        for i in executed
        if statuses[i].started_at is not None
    ]
    ratios = [
        statuses[i].predicted_peak_bytes / statuses[i].measured_peak_bytes
        for i in executed
        if statuses[i].measured_peak_bytes > 0
    ]
    overhead = [
        lt.closed_latency[i] - refs.seconds[i]
        for i in lt.closed_latency
        if jobs[i].cls == "unique"
    ]
    counters = traced.stats["counters"]
    top = plan.warmup[0]  # the most popular tensor's warm-up job
    metrics: Dict[str, float] = {}
    metrics.update(probes.core_probe(plan.pool[top.tensor], top.factor, reps=9))
    metrics.update(probes.phase_metrics(hoqri_results))
    metrics.update(
        probes.parallel_probe(
            plan.pool[top.tensor], top.factor, metrics["core.s3ttmc_s"], reps=5
        )
    )
    specs = [j.spec(mix, plan.pool) for j in plan.warmup + plan.measured]
    metrics.update(
        {
            "runtime.budget_peak_mb": max(s.measured_peak_bytes for s in statuses.values()) / MB,
            "perfmodel.admission_ms": probes.admission_ms(specs, "serial", None),
            "perfmodel.peak_ratio_median": median(ratios),
            "perfmodel.peak_ratio_min": min(ratios),
            "serve.submit_ms": median(lt.submit_s) * 1e3,
            "serve.submit_growth": tenth_ratio(lt.submit_s),
            "serve.queue_wait_ms": median(queue_wait) * 1e3,
            "serve.overhead_ms": median(overhead) * 1e3,
            "serve.hit_ms": median(by_class["hit"]) * 1e3,
            "serve.miss_ms": median(by_class["unique"]) * 1e3,
            "serve.cache_hit_share": counters["cache_hits"] / counters["submitted"],
            "serve.coalesced_share": counters["coalesced"] / counters["submitted"],
            "serve.latency_p50_ms": percentile(open_lat, 50) * 1e3,
            "serve.latency_p99_ms": percentile(open_lat, 99) * 1e3,
            "gen.lag_ms": median(lag) * 1e3,
            "gen.lag_p99_ms": percentile(lag, 99) * 1e3,
        }
    )
    metrics.update(self_time_metrics(tracer, "bench:lifetime"))
    metrics["obs.tracing_overhead"] = traced.closed_s / lt.closed_s
    return metrics
