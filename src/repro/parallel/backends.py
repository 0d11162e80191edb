"""Pluggable execution backends for the parallel S³TTMc executor.

Every backend runs one execution model. The job's cost-balanced
non-zero ranges are the shards (:mod:`repro.parallel.sharding`), one
per worker; each shard's compact ``(rows, S_{N-1,R})`` row-block partial
is computed independently, and the partials merge through the
deterministic :func:`~repro.parallel.sharding.hierarchical_merge`. The
summation order depends only on the shard layout, so the backends
return bit-identical results and differ only in where a shard runs:

``serial``
    In-line loop over the shards on the calling thread. The reference
    implementation and the last step of the degrade chain.
``thread``
    The same in-process path with the shards on a persistent
    :class:`~concurrent.futures.ThreadPoolExecutor` (used only when there
    is more than one shard). NumPy's heavy vector ops release the GIL,
    so gathers/segment-sums overlap on multi-core builds.
``process``
    Persistent worker processes fed via ``multiprocessing`` pipes, each
    holding only its own shard in shared memory
    (:mod:`repro.parallel.shm`): true multi-core execution in pure
    NumPy. Workers cache their chunk plans across calls, so only the
    first kernel call of a decomposition pays symbolic (lattice-build)
    cost.

Fault tolerance
---------------
All backends run chunks through one resilience envelope, governed by
the context's :class:`~repro.runtime.faults.FallbackPolicy`: a per-run
shard-task ledger (:class:`_ShardLedger`) makes every recovery decision,
and one chunk evaluator (:func:`~repro.parallel.executor.evaluate_chunk`)
runs every task, in-process or in a worker.

* transient chunk failures (worker crash, corrupt partial, injected
  error) are retried with exponential backoff up to
  ``policy.max_retries`` per chunk;
* a chunk that exceeds the memory budget is **bisected** along the
  non-zero axis via the balanced partitioner and its halves queued as
  tasks of their own (up to ``policy.max_oom_splits`` deep) — the run
  degrades to smaller intermediates instead of dying;
* every partial carries a checksum taken at the producer; a mismatch at
  the consumer marks the partial corrupt and retries the chunk
  (``policy.verify_partials``).

The process backend additionally *supervises* its workers: each running
chunk is covered by a heartbeat (sent by the worker, suppressed only if
the process is truly wedged), silence longer than
``policy.chunk_timeout`` gets the worker killed, and dead workers —
killed, crashed, or OOM-killed by the OS — are detected via pipe EOF,
respawned (their shard re-ingested from the parent's canonical segments
and plan caches rewarmed on demand), and their task requeued. When a
backend exhausts its retry/respawn budget it raises
:class:`~repro.runtime.faults.BackendUnhealthyError`, which the executor
turns into a degrade (process → thread → serial) per the policy.

Run-level health rides on the context (:mod:`repro.runtime.health`):
every chunk attempt and every supervisor round calls
``ctx.check_health()`` — cooperative cancellation and deadlines trip at
chunk boundaries, and in-flight process workers are killed and the pool
reset on the way out. Each partial's producer-side checksum doubles as
a free finiteness sentinel (``policy.check_finite``); persistently
non-finite partials raise
:class:`~repro.runtime.health.NumericalHealthError` rather than
degrading the backend, since a weaker backend cannot fix numerics.

Reductions are deterministic: shard partials are staged until the
pairwise merge, whose order is fixed by the shard layout, so reruns —
including runs where chunks were retried or workers respawned — produce
bit-identical output. OOM splits change a shard's internal summation
order, so a split run agrees with an unsplit one only to rounding; the
split pieces merge in start order, so runs with the same split tree are
bit-identical on every backend.

Everything is observable: ``parallel.retries``, ``parallel.worker_respawns``,
``parallel.oom_splits``, ``parallel.corrupt_partials`` counters plus
per-incident trace events, and the matching
:class:`~repro.parallel.executor.ParallelRunReport` fields.

Backends are context managers; ``close()`` is idempotent. Create them
directly, via :func:`make_backend`, or implicitly through
``parallel_s3ttmc(..., backend="thread")`` /
``hooi(..., execution="process")``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from contextlib import contextmanager
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait as _mp_wait
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..obs import trace as _trace
from ..runtime.budget import MemoryLimitError
from ..runtime.context import ExecContext, resolve_context, tensor_generation
from ..runtime.faults import (
    BackendUnhealthyError,
    FallbackPolicy,
    InjectedFault,
)
from ..runtime.health import NumericalHealthError
from . import shm as _shm
from .executor import (
    ParallelJob,
    ParallelRunReport,
    chunk_row_block,
    evaluate_chunk,
    get_chunk_plans,
)
from .partition import balanced_partition, estimate_nonzero_costs
from .sharding import TensorShard, hierarchical_merge, shards_for_ranges

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "START_METHOD_ENV_VAR",
    "default_workers",
    "make_backend",
]

#: Environment override for the process backend's start method
#: (``fork`` / ``spawn`` / ``forkserver``); CI uses it to exercise the
#: spawn path on platforms that default to fork.
START_METHOD_ENV_VAR = "REPRO_START_METHOD"


def default_workers() -> int:
    """Default worker count: one per core."""
    return max(1, os.cpu_count() or 1)


def _supervisor_wait_timeout(
    ctx: ExecContext,
    policy: FallbackPolicy,
    running: Dict[object, "_WorkerHandle"],
) -> Optional[float]:
    """Upper bound for one supervisor ``_mp_wait`` round.

    Starts from the hang-detection deadline (silence past
    ``policy.chunk_timeout`` of a started-up worker), then bounds it by
    the run deadline so an expired run is noticed even while every
    worker is healthy, and caps it at 100 ms when a cancel token is
    armed — cancellation arrives from *another* thread, so the
    supervisor must wake to observe it.
    With no timeout, deadline or token the wait stays unbounded (the
    pre-supervision blocking behaviour, zero wake-ups).
    """
    timeout: Optional[float] = None
    heard = [h.last_heard for h in running.values() if h.ready]
    if policy.chunk_timeout is not None and heard:
        deadline = min(heard) + policy.chunk_timeout
        timeout = max(0.005, deadline - time.monotonic())
    remaining = ctx.remaining_seconds()
    if remaining is not None:
        bound = max(0.005, remaining)
        timeout = bound if timeout is None else min(timeout, bound)
    if ctx.cancel_token is not None:
        timeout = 0.1 if timeout is None else min(timeout, 0.1)
    return timeout


def _checksums_match(expected: float, actual: float) -> bool:
    # Bitwise: the consumer re-sums the exact buffer the producer summed,
    # in the same (C-contiguous pairwise) order.
    if math.isnan(expected) and math.isnan(actual):
        return True
    return expected == actual


def _bisect_range(
    indices: np.ndarray, start: int, stop: int, rank: int
) -> List[Tuple[int, int]]:
    """Split ``[start, stop)`` into two cost-balanced non-empty halves."""
    if stop - start <= 1:
        return [(start, stop)]
    costs = estimate_nonzero_costs(indices[start:stop], rank)
    halves = [
        (start + a, start + b)
        for a, b in balanced_partition(costs, 2)
        if a < b
    ]
    if len(halves) < 2:  # degenerate cost profile: fall back to midpoint
        mid = (start + stop) // 2
        halves = [(start, mid), (mid, stop)]
    return halves


class _ChunkTask:
    """One schedulable unit, in global non-zero coordinates: a shard's
    whole range or an OOM-split sub-range of it."""

    __slots__ = ("slot", "start", "stop", "attempt", "depth")

    def __init__(self, slot: int, start: int, stop: int, depth: int = 0) -> None:
        self.slot = slot
        self.start = start
        self.stop = stop
        self.attempt = 0
        self.depth = depth


class _ShardLedger:
    """Per-run chunk-task bookkeeping shared by every backend.

    The ledger is the resilience envelope: it holds one queue of
    :class:`_ChunkTask` per shard and makes every recovery decision —
    retries with backoff, OOM bisection, partial acceptance (finiteness
    sentinel and checksum) and the merge of a split shard's pieces — and
    records every incident. Backends only decide *where* a task runs:
    in-process backends drain a shard's queue on one thread, the process
    supervisor ships each task to the shard's owner worker.

    Split pieces merge into the shard's block in start order, so a
    shard's summation order is a function of its split tree alone and
    OOM-recovered runs are bitwise-equal across backends.

    Queues, pieces and counts are per shard, so concurrent threads each
    draining their own shard share only the report, whose counts are
    updated under a lock.
    """

    def __init__(
        self,
        job: ParallelJob,
        ctx: ExecContext,
        report: Optional[ParallelRunReport],
        backend: str,
    ) -> None:
        self.job = job
        self.ctx = ctx
        self.report = report
        self.backend = backend
        self.policy = ctx.effective_fallback()
        self._report_lock = threading.Lock()
        self.queues: Dict[int, Deque[_ChunkTask]] = {
            slot: deque([_ChunkTask(slot, start, stop)])
            for slot, (start, stop) in enumerate(job.ranges)
        }
        self._outstanding = [1] * len(job.ranges)
        self._pieces: List[List[Tuple[int, int, np.ndarray]]] = [
            [] for _ in job.ranges
        ]
        #: Each shard's accepted ``(rows, cols)`` partial, once complete.
        self.blocks: List[Optional[np.ndarray]] = [None] * len(job.ranges)

    def pending(self) -> bool:
        return any(self.queues.values())

    def next_task(self, slot: int) -> Optional[_ChunkTask]:
        queue = self.queues[slot]
        return queue.popleft() if queue else None

    def arm(self, task: _ChunkTask, **attrs) -> Optional[Tuple[str, float]]:
        """Arm the ``"chunk"`` fault site for one task attempt."""
        injector = self.ctx.faults
        fault = (
            injector.arm(
                "chunk", backend=self.backend, slot=task.slot,
                attempt=task.attempt, **attrs,
            )
            if injector is not None
            else None
        )
        return fault.payload() if fault is not None else None

    def note(self, event: str, counter: str, report_field: str, **attrs) -> None:
        """Record one resilience incident: trace event + counter + report."""
        collector = self.ctx.effective_collector()
        if collector is not None:
            _trace.event(event, collector=collector, **attrs)
            collector.metrics.counter(counter).inc()
        if self.report is not None:
            with self._report_lock:
                setattr(
                    self.report, report_field,
                    getattr(self.report, report_field) + 1,
                )

    def _note_chunk(self, event, counter, report_field, task, **attrs) -> None:
        self.note(
            event, counter, report_field,
            backend=self.backend, chunk=task.slot, shard=task.slot, **attrs,
        )

    def retry(self, task: _ChunkTask, reason: str, *, health: bool = False) -> None:
        """Requeue a failed attempt after backoff, or raise on exhaustion.

        Exhaustion raises :class:`~repro.runtime.faults.BackendUnhealthyError`
        (the executor degrades the backend), or
        :class:`~repro.runtime.health.NumericalHealthError` for a partial
        that stayed non-finite — a weaker backend cannot fix numerics.
        """
        task.attempt += 1
        if task.attempt > self.policy.max_retries:
            what = f"shard {task.slot} chunk [{task.start},{task.stop})"
            if health:
                raise NumericalHealthError(
                    f"{what} stayed non-finite after {task.attempt} attempts"
                )
            raise BackendUnhealthyError(
                self.backend,
                f"{what} failed after {task.attempt} attempts: {reason}",
            )
        self._note_chunk(
            "parallel.retry", "parallel.retries", "retries", task,
            attempt=task.attempt, reason=reason,
        )
        backoff = self.policy.backoff(task.attempt)
        if backoff > 0:
            time.sleep(backoff)
        self.queues[task.slot].append(task)

    def split(self, task: _ChunkTask, oom: MemoryLimitError) -> None:
        """Bisect a task refused by the memory budget, or re-raise ``oom``."""
        if task.depth >= self.policy.max_oom_splits or task.stop - task.start <= 1:
            raise oom
        self._note_chunk(
            "parallel.oom_split", "parallel.oom_splits", "oom_splits", task,
            nz_start=task.start, nz_stop=task.stop, depth=task.depth,
            label=oom.label,
        )
        halves = _bisect_range(self.job.indices, task.start, task.stop, self.job.rank)
        self._outstanding[task.slot] += len(halves) - 1
        self.queues[task.slot].extend(
            _ChunkTask(task.slot, a, b, task.depth + 1) for a, b in halves
        )

    def accept(
        self, task: _ChunkTask, partial: np.ndarray, checksum: float, **attrs
    ) -> bool:
        """Take a task's partial, or retry the task if it fails the
        finiteness sentinel or checksum verification (returns ``False``).
        ``attrs`` tag those incidents (the process backend's ``worker``).
        """
        if self.policy.check_finite and not math.isfinite(checksum):
            self._note_chunk(
                "health.nonfinite_partial", "health.nonfinite_partials",
                "nonfinite_partials", task, **attrs,
            )
            self.retry(task, "non-finite partial", health=True)
            return False
        if self.policy.verify_partials and not _checksums_match(
            checksum, float(partial.sum())
        ):
            self._note_chunk(
                "parallel.corrupt_partial", "parallel.corrupt_partials",
                "corrupt_partials", task, **attrs,
            )
            self.retry(task, "corrupt partial (checksum mismatch)")
            return False
        slot = task.slot
        self._pieces[slot].append((task.start, task.stop, partial))
        self._outstanding[slot] -= 1
        if self._outstanding[slot] == 0:
            self.blocks[slot] = self._merge(slot)
        return True

    def _merge(self, slot: int) -> np.ndarray:
        pieces = sorted(self._pieces[slot], key=lambda piece: piece[0])
        self._pieces[slot] = []
        if len(pieces) == 1:
            return pieces[0][2]
        indices, dim = self.job.indices, self.job.dim
        start, stop = self.job.ranges[slot]
        rows, _ = chunk_row_block(indices[start:stop], dim)
        block = np.zeros((rows.shape[0], self.job.cols), dtype=np.float64)
        for a, b, part in pieces:
            block[np.searchsorted(rows, chunk_row_block(indices[a:b], dim)[0])] += part
        return block


class Backend(ABC):
    """One parallel execution strategy with reusable worker state."""

    name: str = "abstract"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers) if n_workers else default_workers()

    @abstractmethod
    def execute(
        self, job: ParallelJob, report: Optional[ParallelRunReport] = None
    ) -> np.ndarray:
        """Run ``job`` and return the reduced ``(dim, cols)`` output."""

    def close(self) -> None:
        """Release worker state (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- shared helpers ----------------------------------------------------
    @staticmethod
    def _job_ctx(job: ParallelJob) -> ExecContext:
        return resolve_context(job.ctx)

    @staticmethod
    @contextmanager
    def _reserve(ctx: ExecContext, job: ParallelJob, partial_rows: int):
        """Account the staged shard partials and the merged ``Y`` against
        the job's budget for the duration of one run."""
        held: List[Tuple[int, str]] = []
        try:
            for nbytes, label in (
                (partial_rows * job.cols * 8, "parallel partials"),
                (job.dim * job.cols * 8, "Y (parallel)"),
            ):
                ctx.request_bytes(nbytes, label)
                held.append((nbytes, label))
            yield
        finally:
            for nbytes, label in held:
                ctx.release_bytes(nbytes, label)

    @staticmethod
    def _fill_chunk_report(
        report: Optional[ParallelRunReport],
        slot: int,
        seconds: float,
        worker: Optional[str] = None,
    ) -> None:
        if report is None:
            return
        if slot < len(report.chunk_seconds):
            report.chunk_seconds[slot] += seconds
        if worker is not None:
            report.worker_busy[worker] = report.worker_busy.get(worker, 0.0) + seconds


class _InProcessBackend(Backend):
    """Shards evaluated in this process, merged by the hierarchical tree.

    Each shard's queue in the run's :class:`_ShardLedger` is drained on
    one thread; an injected *hang* here is just a delay — there is no
    process boundary to kill across, so kill-based hang recovery is a
    process-backend capability. All shard blocks are staged until
    :func:`hierarchical_merge` reduces them, so reduction memory is
    ``Σ_s rows_s·S`` and the summation order depends only on the shard
    layout. Subclasses decide how the shards run (:meth:`_run_shards`).
    """

    def _run_shards(self, run, n_shards: int) -> None:
        for slot in range(n_shards):
            run(slot)

    def execute(
        self, job: ParallelJob, report: Optional[ParallelRunReport] = None
    ) -> np.ndarray:
        ctx = self._job_ctx(job)
        plans = get_chunk_plans(
            job.tensor, job.ranges, job.memoize, report=report, ctx=ctx
        )
        ledger = _ShardLedger(job, ctx, report, self.name)
        parent_span = _trace.current_span_id()

        def attempt(task: _ChunkTask) -> None:
            # Cooperative cancellation/deadline checkpoint: once per
            # chunk attempt, before any kernel work starts.
            ctx.check_health(f"{self.name}.chunk")
            fault = ledger.arm(task)
            kind = fault[0] if fault is not None else None
            if kind == "crash":
                ledger.retry(task, "injected chunk crash")
                return
            if kind == "hang":
                time.sleep(fault[1])
            cp = (
                plans[task.slot]
                if task.depth == 0
                else get_chunk_plans(
                    job.tensor, [(task.start, task.stop)], job.memoize, ctx=ctx
                )[0]
            )
            partial = np.empty((cp.n_rows, job.cols), dtype=np.float64)
            try:
                checksum = evaluate_chunk(
                    job.indices[task.start:task.stop],
                    job.values[task.start:task.stop],
                    job.dim, job.factor, cp, partial,
                    memoize=job.memoize, kernel=job.kernel,
                    chunk_edges=job.chunk_edges, ctx=ctx, fault=fault,
                )
            except MemoryLimitError as oom:
                ledger.split(task, oom)
            except InjectedFault as exc:
                ledger.retry(task, str(exc))
            else:
                ledger.accept(task, partial, checksum)

        def run(slot: int) -> None:
            cp = plans[slot]
            worker = threading.current_thread().name
            # Enter the job's context on this thread so budget and
            # collector resolve here exactly as on the submitting thread.
            with ctx.scope(), ctx.span(
                "parallel.chunk",
                parent_id=parent_span,
                chunk=slot,
                shard=slot,
                nz_start=cp.start,
                nz_stop=cp.stop,
                worker=worker,
            ):
                tick = time.perf_counter()
                while (task := ledger.next_task(slot)) is not None:
                    attempt(task)
                self._fill_chunk_report(
                    report, slot, time.perf_counter() - tick, worker=worker
                )

        with self._reserve(ctx, job, sum(cp.n_rows for cp in plans)):
            self._run_shards(run, len(plans))
            return hierarchical_merge(
                [(cp.rows, block) for cp, block in zip(plans, ledger.blocks)],
                job.dim,
                job.cols,
                ctx=ctx,
                report=report,
            )


class SerialBackend(_InProcessBackend):
    """Loop over the shards on the calling thread (reference backend)."""

    name = "serial"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        super().__init__(n_workers or 1)


class ThreadBackend(_InProcessBackend):
    """The in-process path with shards on a persistent thread pool."""

    name = "thread"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        super().__init__(n_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _run_shards(self, run, n_shards: int) -> None:
        if n_shards <= 1:
            super()._run_shards(run, n_shards)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="s3ttmc"
            )
        list(self._pool.map(run, range(n_shards)))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class _WorkerHandle:
    """Parent-side record of one worker process."""

    __slots__ = (
        "worker_id",
        "proc",
        "conn",
        "task",
        "task_id",
        "last_heard",
        "result_name",
        "ready",
    )

    def __init__(self, worker_id: int, proc, conn) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.task: Optional[_ChunkTask] = None
        self.task_id = -1
        self.last_heard = 0.0
        self.result_name = ""
        # False until the worker's ("ready", -1): interpreter start-up
        # (long under spawn) is not silence, so no hang clock runs.
        self.ready = False


class ProcessBackend(Backend):
    """Supervised persistent worker processes, each owning one shard.

    Workers are spawned lazily on the first :meth:`execute` and live
    until :meth:`close`. Each worker holds only its own
    :class:`~repro.parallel.sharding.TensorShard` (indices/values copied
    into shared memory once per tensor and partition), the factor buffer
    is rewritten in place per call, and each worker caches its chunk
    plans across calls — iteration 2..n of a decomposition pays no
    symbolic cost on any core.

    Shard tasks are dispatched **one at a time** to the shard's owner
    and supervised: workers heartbeat while computing, silence past the
    policy's ``chunk_timeout`` gets the worker killed, and any worker
    loss (hang, crash, OS kill) triggers a respawn — the shard
    re-ingested from the parent's canonical segments, plan caches
    rewarmed on demand — and a bounded requeue of its task. Retry,
    OOM-split and acceptance decisions are the run's
    :class:`_ShardLedger`'s, as on the in-process backends. Shard
    row-blocks merge through the deterministic hierarchical reduction,
    so recovered runs are bit-identical to clean ones.
    """

    name = "process"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
        run_token: Optional[str] = None,
    ) -> None:
        super().__init__(n_workers)
        # Every segment this backend (or its workers) creates is
        # namespaced under this token, so concurrent backends in one
        # parent can never collide on names or sweep each other.
        self._run_token = str(run_token) if run_token else os.urandom(4).hex()
        if start_method is None:
            start_method = os.environ.get(START_METHOD_ENV_VAR) or None
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: List[_WorkerHandle] = []
        self._owned: Dict[str, object] = {}  # label -> SharedMemory
        self._factor_view: Optional[np.ndarray] = None
        self._factor_spec = None
        self._attached_results: Dict[str, object] = {}  # name -> SharedMemory
        # Shard state: the generation stamped on shard messages (bumped on
        # every re-shard so worker plan-cache keys never alias), the
        # (tensor, partition) the shards were built for, the per-worker
        # ("shard", ...) messages, and the parent-side shard records.
        self._shard_gen = 0
        self._shard_token: Optional[tuple] = None
        self._shard_msgs: Dict[int, tuple] = {}
        self._shards: List[TensorShard] = []

    # -- worker lifecycle --------------------------------------------------
    def _spawn_one(self, worker_id: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shm.worker_main,
            args=(child_conn, worker_id, self._run_token),
            name=f"s3ttmc-worker-{worker_id}",
            daemon=True,
        )
        # Under a fork start method, forking while a sibling thread is
        # mid segment-create/attach would clone a held resource-tracker
        # lock into the child, deadlocking its first attach. Holding the
        # tracker guard across the fork makes spawn and segment traffic
        # mutually exclusive (see shm.tracker_guard).
        with _shm.tracker_guard():
            proc.start()
        child_conn.close()
        return _WorkerHandle(worker_id, proc, parent_conn)

    def _ensure_workers(self) -> None:
        if self._workers:
            return
        # Start the resource tracker *before* any worker so every worker
        # shares it: fork children inherit it, and spawn/forkserver
        # children are handed its fd. With one shared tracker, creator
        # and attacher registrations deduplicate and each segment is
        # unregistered exactly once, by its unlink.
        try:  # pragma: no cover - tracker internals vary across versions
            from multiprocessing import resource_tracker

            with _shm.tracker_guard():
                resource_tracker.ensure_running()
        except Exception:
            pass
        self._workers = [
            self._spawn_one(worker_id) for worker_id in range(self.n_workers)
        ]

    def _send_state(self, handle: _WorkerHandle) -> None:
        """Bring a (re)spawned worker up to the current operand state.

        This is shard *re-ingest*: the worker receives only its own
        shard's segments (kept alive parent-side as the canonical slice
        copies), then the factor.
        """
        msg = self._shard_msgs.get(handle.worker_id)
        if msg is not None:
            handle.conn.send(msg)
        if self._factor_spec is not None:
            handle.conn.send(("factor", self._factor_spec))

    def _send_each(self, message_for) -> None:
        """Send every worker ``message_for(worker_id)`` (``None`` skips).

        A worker found dead while idle is replaced; the caller updated
        the pending state first, so :meth:`_send_state` brings the
        replacement up to date, this message's content included.
        """
        for handle in list(self._workers):
            msg = message_for(handle.worker_id)
            if msg is None:
                continue
            try:
                handle.conn.send(msg)
            except (OSError, BrokenPipeError, ValueError):
                self._retire_worker(handle, kill=True)
                fresh = self._spawn_one(handle.worker_id)
                self._workers.append(fresh)
                self._send_state(fresh)

    def _retire_worker(self, handle: _WorkerHandle, *, kill: bool) -> None:
        """Remove a worker from the pool and reclaim everything it held."""
        if handle in self._workers:
            self._workers.remove(handle)
        if kill and handle.proc.is_alive():
            handle.proc.terminate()
        handle.proc.join(timeout=5)
        if handle.proc.is_alive():  # pragma: no cover - stuck worker
            handle.proc.kill()
            handle.proc.join(timeout=5)
        try:
            handle.conn.close()
        except Exception:
            pass
        if handle.result_name:
            # The worker owned its result segment; it died without
            # unlinking, so the parent must — this is the shm-leak fix
            # for abnormal worker exit.
            self._detach_result(handle.result_name)
            _shm.unlink_segment_by_name(handle.result_name)
            handle.result_name = ""

    def _reset_workers(self) -> None:
        """Hard-stop the pool (fatal-error path); next execute rebuilds."""
        for handle in list(self._workers):
            self._retire_worker(handle, kill=True)
        self._workers = []
        self._factor_view = None
        self._factor_spec = None
        self._drop_shards()

    def _drop_shards(self) -> None:
        """Unlink shard segments and forget the shard layout."""
        for label in [k for k in self._owned if k.startswith("shard")]:
            _shm.close_and_unlink(self._owned.pop(label))
        self._shard_token = None
        self._shard_msgs = {}
        self._shards = []

    def _ensure_shards(self, job: ParallelJob) -> List[TensorShard]:
        """Ship each worker its disjoint shard.

        One shard per chunk range, bound to the same-numbered worker.
        The parent keeps every shard's segments alive in ``self._owned``
        — they are the canonical copies a respawned owner re-ingests via
        :meth:`_send_state`.
        """
        # tensor_generation (not id()) — generations are never reused, so
        # a new tensor at a recycled address cannot alias a stale token.
        token = (tensor_generation(job.tensor), tuple(job.ranges), job.dim)
        if token == self._shard_token:
            return self._shards
        self._drop_shards()
        shards = shards_for_ranges(job.tensor, job.ranges, job.rank)
        self._shard_gen += 1
        tok = self._run_token
        for shard in shards:
            idx_shm, _v, idx_spec = _shm.create_shared_array(
                shard.indices, run_token=tok
            )
            val_shm, _v, val_spec = _shm.create_shared_array(
                shard.values, run_token=tok
            )
            self._owned[f"shard{shard.shard_id}:indices"] = idx_shm
            self._owned[f"shard{shard.shard_id}:values"] = val_shm
            self._shard_msgs[shard.shard_id] = (
                "shard", self._shard_gen, shard.shard_id, idx_spec, val_spec,
                job.dim,
            )
        self._shards = shards
        self._shard_token = token
        # Workers beyond the shard count stay idle.
        self._send_each(self._shard_msgs.get)
        return shards

    def _ensure_factor(self, factor: np.ndarray) -> None:
        if (
            self._factor_view is not None
            and self._factor_view.shape == factor.shape
        ):
            self._factor_view[...] = factor  # in-place: workers keep mapping
            return
        _shm.close_and_unlink(self._owned.pop("factor", None))
        shm, view, spec = _shm.create_shared_array(
            factor, run_token=self._run_token
        )
        self._owned["factor"] = shm
        self._factor_view = view
        self._factor_spec = spec
        self._send_each(lambda _worker_id: ("factor", spec))

    def close(self) -> None:
        for handle in self._workers:
            try:
                handle.conn.send(("close",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for handle in self._workers:
            handle.proc.join(timeout=5)
            if handle.proc.is_alive():  # pragma: no cover - stuck worker
                handle.proc.terminate()
                handle.proc.join(timeout=5)
            try:
                handle.conn.close()
            except Exception:
                pass
            if handle.result_name:
                # Normally the worker unlinks its own buffer on close;
                # sweep here in case it was terminated.
                _shm.unlink_segment_by_name(handle.result_name)
        self._workers = []
        for shm in self._attached_results.values():
            try:
                shm.close()
            except Exception:
                pass
        self._attached_results = {}
        for label in list(self._owned):
            _shm.close_and_unlink(self._owned.pop(label))
        self._factor_view = None
        self._factor_spec = None
        self._drop_shards()
        # Per-run sweep: reclaim anything in this backend's namespace the
        # explicit teardown above missed (crash paths). Never touches a
        # concurrent backend's segments.
        _shm.sweep_run_segments(self._run_token)

    @property
    def run_token(self) -> str:
        """Namespace token stamped on every segment this backend creates."""
        return self._run_token

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- execution ---------------------------------------------------------
    def execute(
        self, job: ParallelJob, report: Optional[ParallelRunReport] = None
    ) -> np.ndarray:
        """One shard per worker, shard-local chunks, hierarchical merge.

        Each shard is bound 1:1 to its same-numbered owner worker — tasks
        for shard *k* only ever run on worker *k*, in the worker's local
        non-zero coordinates (its segments hold just the slice). Losing
        an owner triggers a respawn plus shard *re-ingest* (the parent
        re-sends the shard's canonical segments — counted by
        ``parallel.shard_reingests``) and a bounded requeue. OOM splits
        bisect within the shard and stay on the owner. Completed shard
        row-blocks merge through the deterministic hierarchical
        reduction, so recovered runs are bit-identical to clean ones and
        to the serial/thread backends.
        """
        if len(job.ranges) > self.n_workers:
            # Shard k lives on worker k alone: a shard without an owner
            # could never be dispatched.
            raise ValueError(
                f"job has {len(job.ranges)} shards but the process backend "
                f"has {self.n_workers} workers; run it with "
                f"n_workers <= {self.n_workers}"
            )
        ctx = self._job_ctx(job)
        policy = ctx.effective_fallback()
        self._ensure_workers()
        shards = self._ensure_shards(job)
        self._ensure_factor(job.factor)
        collector = ctx.effective_collector()
        budget = ctx.effective_budget()
        ledger = _ShardLedger(job, ctx, report, self.name)
        running: Dict[object, _WorkerHandle] = {}  # conn -> handle
        task_seq = 0
        respawns_used = 0
        stats = {"hits": 0, "misses": 0, "build": 0.0, "reduce": 0.0}

        def handle_for(worker_id: int) -> Optional[_WorkerHandle]:
            for handle in self._workers:
                if handle.worker_id == worker_id:
                    return handle
            return None

        def release(handle: _WorkerHandle) -> Optional[_ChunkTask]:
            running.pop(handle.conn, None)
            task, handle.task, handle.task_id = handle.task, None, -1
            return task

        def lose_worker(handle: _WorkerHandle, reason: str, *, kill: bool) -> None:
            nonlocal respawns_used
            task = release(handle)
            worker_id = handle.worker_id
            self._retire_worker(handle, kill=kill)
            owns_shard = worker_id in self._shard_msgs
            if respawns_used >= policy.max_respawns:
                if owns_shard:
                    # Nobody else holds this shard: the run cannot finish.
                    raise BackendUnhealthyError(
                        self.name,
                        f"shard {worker_id} owner lost with respawn budget "
                        f"exhausted ({reason})",
                    )
                return
            respawns_used += 1
            ledger.note(
                "parallel.worker_respawn", "parallel.worker_respawns",
                "respawns", worker=worker_id, reason=reason,
            )
            fresh = self._spawn_one(worker_id)
            self._workers.append(fresh)
            self._send_state(fresh)  # re-ingests the worker's shard
            if owns_shard:
                ledger.note(
                    "parallel.shard_reingest", "parallel.shard_reingests",
                    "shard_reingests", worker=worker_id, shard=worker_id,
                    reason=reason,
                )
            if task is not None:
                ledger.retry(task, reason)

        def finish(handle: _WorkerHandle, msg: tuple) -> None:
            (
                _kind, _task_id, result_name, n_rows, checksum,
                build_s, numeric_s, hit, peak,
            ) = msg
            buffer = self._attach_result(handle, result_name, n_rows, job.cols)
            task = release(handle)
            tick = time.perf_counter()
            # Copy out of the worker's result buffer: its next chunk
            # overwrites it.
            if not ledger.accept(
                task, np.array(buffer), checksum, worker=handle.worker_id
            ):
                return
            stats["reduce"] += time.perf_counter() - tick
            if budget is not None and peak:
                budget.observe_peak(peak)
            stats["hits"] += bool(hit)
            stats["misses"] += not hit
            stats["build"] += build_s
            self._fill_chunk_report(
                report, task.slot, numeric_s, worker=f"w{handle.worker_id}"
            )
            if collector is not None:
                _trace.event(
                    "parallel.chunk.done",
                    collector=collector,
                    chunk=task.slot,
                    shard=task.slot,
                    worker=handle.worker_id,
                    attempt=task.attempt,
                    numeric_seconds=numeric_s,
                    build_seconds=build_s,
                    plan_cache_hit=bool(hit),
                )

        def dispatch_owner(worker_id: int) -> None:
            nonlocal task_seq
            handle = handle_for(worker_id)
            if handle is None or handle.conn in running:
                return
            task = ledger.next_task(worker_id)
            if task is None:
                return
            fault = ledger.arm(task, worker=worker_id, shard=task.slot)
            # The owner's segments hold only its shard: ship the range in
            # shard-local coordinates.
            offset = shards[task.slot].start
            task_seq += 1
            try:
                handle.conn.send(
                    (
                        "chunk", task_seq, task.start - offset,
                        task.stop - offset, job.memoize, job.cols,
                        budget_spec, fault, policy.heartbeat_interval,
                        job.kernel, job.chunk_edges,
                    )
                )
            except (OSError, BrokenPipeError, ValueError):
                ledger.queues[task.slot].appendleft(task)
                lose_worker(handle, "shard owner died while idle", kill=True)
                return
            handle.task = task
            handle.task_id = task_seq
            handle.last_heard = time.monotonic()
            running[handle.conn] = handle

        with self._reserve(ctx, job, sum(s.n_rows for s in shards)):
            # Snapshot the budget *after* the reservation so the workers'
            # mirrored budgets sit on top of everything the parent has
            # already committed for this run.
            budget_spec = (
                (budget.limit_bytes, budget.in_use) if budget is not None else None
            )
            try:
                while running or ledger.pending():
                    # Raising here escapes into the BaseException handler
                    # below: in-flight owners are killed and the pool
                    # reset, so a cancelled/expired run leaves nothing
                    # running.
                    ctx.check_health("process.supervisor")
                    for worker_id in ledger.queues:
                        dispatch_owner(worker_id)
                    if not running:
                        if not self._workers and ledger.pending():
                            raise BackendUnhealthyError(
                                self.name, "no workers available"
                            )
                        continue
                    timeout = _supervisor_wait_timeout(ctx, policy, running)
                    for conn in _mp_wait(list(running), timeout):
                        handle = running.get(conn)
                        if handle is None:
                            continue  # worker was killed earlier this round
                        try:
                            msg = conn.recv()
                        except (EOFError, OSError):
                            lose_worker(
                                handle, "worker died (pipe EOF)", kill=True
                            )
                            continue
                        kind = msg[0]
                        if kind == "ready":
                            handle.ready = True
                            handle.last_heard = time.monotonic()
                        elif kind == "beat":
                            if msg[1] == handle.task_id:
                                handle.last_heard = time.monotonic()
                        elif kind == "result":
                            # Proactive result-segment announcement:
                            # recorded before the first chunk_done so a
                            # worker killed mid-chunk cannot leak it.
                            if msg[1] == handle.task_id:
                                self._track_result(handle, msg[2])
                                handle.last_heard = time.monotonic()
                        elif msg[1] != handle.task_id:
                            continue  # reply for a superseded dispatch
                        elif kind == "chunk_done":
                            finish(handle, msg)
                        elif kind == "chunk_oom":
                            _k, _tid, label, nbytes, limit, in_use = msg
                            ledger.split(
                                release(handle),
                                MemoryLimitError(label, nbytes, limit, in_use),
                            )
                        elif kind == "chunk_error":
                            ledger.retry(
                                release(handle),
                                f"worker error: {str(msg[2]).splitlines()[0]}",
                            )
                    if policy.chunk_timeout is not None:
                        now = time.monotonic()
                        for handle in list(running.values()):
                            if (
                                handle.ready
                                and now - handle.last_heard > policy.chunk_timeout
                            ):
                                lose_worker(
                                    handle,
                                    f"worker hung (silent for "
                                    f"{now - handle.last_heard:.2f}s)",
                                    kill=True,
                                )

                out = hierarchical_merge(
                    [(s.rows, block) for s, block in zip(shards, ledger.blocks)],
                    job.dim,
                    job.cols,
                    ctx=ctx,
                    report=report,
                )
                if collector is not None:
                    for kind in ("hits", "misses"):
                        if stats[kind]:
                            collector.metrics.counter(
                                f"parallel.plan_cache.{kind}"
                            ).inc(stats[kind])
                if report is not None:
                    report.reduce_seconds += stats["reduce"]
                    report.plan_cache_hits += stats["hits"]
                    report.plan_cache_misses += stats["misses"]
                    report.plan_build_seconds += stats["build"]
                return out
            except BaseException:
                # Workers may be mid-chunk, wedged, or have unread replies
                # in their pipes; reset the pool so this backend (or its
                # successor after a fallback) starts clean.
                self._reset_workers()
                raise

    def _detach_result(self, name: str) -> None:
        shm = self._attached_results.pop(name, None)
        if shm is not None:
            try:
                shm.close()
            except Exception:
                pass

    def _track_result(self, handle: _WorkerHandle, name: str) -> None:
        """Record ``name`` as the worker's result segment.

        Workers announce their (worker-owned) result segment as soon as
        it is created or regrown — *before* computing the chunk — so the
        parent's :meth:`_retire_worker` unlink path covers a worker
        killed mid-first-chunk. A regrow unlinked the previous segment,
        so our attachment to it is stale: drop it.
        """
        if handle.result_name != name:
            self._detach_result(handle.result_name)
        handle.result_name = name

    def _attach_result(
        self, handle: _WorkerHandle, name: str, n_rows: int, cols: int
    ) -> np.ndarray:
        shm = self._attached_results.get(name)
        if shm is None:
            spec = _shm.ShmArraySpec(name, (1,), "float64")
            shm, _view = _shm.attach_shared_array(spec)
            self._attached_results[name] = shm
        self._track_result(handle, name)
        return np.ndarray((n_rows, cols), dtype=np.float64, buffer=shm.buf)


BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def make_backend(
    name: str,
    n_workers: Optional[int] = None,
    *,
    run_token: Optional[str] = None,
) -> Backend:
    """Instantiate a backend by name (``serial`` / ``thread`` / ``process``).

    ``run_token`` namespaces the process backend's shared-memory
    segments (usually the creating :class:`ExecContext`'s token);
    serial/thread backends create no segments and ignore it.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    if name == "process":
        return cls(n_workers, run_token=run_token)
    return cls(n_workers)
