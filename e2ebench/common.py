"""Shared plumbing: provenance, statistics, spans and self time, records.

Everything here is benchmark-side. The program under test is only ever
reached through its public entry points; spans are recorded around those
calls with the library's own :class:`repro.obs.TraceCollector`, so the
library's spans (``phase:*``, ``s3ttmc``, ``lattice.*``, ``parallel.*``)
nest under the benchmark's when a traced call passes the same collector
through ``ExecContext(collector=...)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import SparseSymmetricTensor
from repro.core import content_fingerprint
from repro.obs import TraceCollector
from repro.obs import trace as _trace
from repro.obs.export import write_trace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: Environment variables pinned to one BLAS thread before NumPy loads, so
#: the parent's SVD/QR never competes with the ``nproc`` backend workers.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

perf = time.perf_counter

MB = 2.0**20


class CheckFailed(RuntimeError):
    """A correctness or hygiene check on the program's output failed."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """BLAKE2b over every program source file — the commit stand-in for
    checkouts that are not git repositories."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, constants: dict, input_digest: str) -> dict:
    """Host class, program version and workload identity of one result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "workload": workload,
        "seed": int(seed),
        "constants": constants,
        "input_digest": input_digest,
    }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def fresh_copy(tensor: SparseSymmetricTensor) -> SparseSymmetricTensor:
    """Content-identical tensor with new arrays and no memoized plans.

    Plans are memoized on the tensor object, so every cold set-up starts
    from one of these."""
    return SparseSymmetricTensor(
        tensor.order,
        tensor.dim,
        tensor.indices.copy(),
        tensor.values.copy(),
        assume_canonical=True,
    )


def input_digest(tensors: Sequence[SparseSymmetricTensor], *arrays: np.ndarray) -> str:
    """One digest over every generated input (tensors and extra arrays)."""
    digest = hashlib.blake2b(digest_size=16)
    for tensor in tensors:
        digest.update(content_fingerprint(tensor).encode())
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Statistics and resources
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tenth_ratio(values: Sequence[float]) -> float:
    """Median over the last tenth divided by the median over the first."""
    n = max(1, len(values) // 10)
    return median(values[-n:]) / median(values[:n])


def rss_peak_mb() -> float:
    """Larger of this process's peak RSS and its largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------

#: Library span-name prefixes and the layer each belongs to. The
#: benchmark's own spans are named ``<layer>:<entry point>``.
_LIBRARY_LAYERS = (
    ("phase:", "decomp"),
    ("hoqri.", "decomp"),
    ("hooi.", "decomp"),
    ("checkpoint.", "decomp"),
    ("parallel.", "parallel"),
    ("s3ttmc", "core"),
    ("times_core", "core"),
    ("lattice", "core"),
    ("autotune.", "core"),
)

#: Layers whose self time the traced run reports.
LAYERS = ("bench", "core", "decomp", "parallel", "serve")


def layer_of(name: str) -> str:
    for prefix, layer in _LIBRARY_LAYERS:
        if name.startswith(prefix):
            return layer
    head, sep, _ = name.partition(":")
    return head if sep and head in LAYERS else "other"


class Tracer:
    """Spans around calls into the program's layers, kept in memory.

    With ``enabled=False`` every span is a shared no-op and
    :attr:`collector` is ``None``, so untraced runs pay nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.collector: Optional[TraceCollector] = TraceCollector() if enabled else None

    def span(self, name: str, *, parent: Optional[int] = None, **attrs):
        if self.collector is None:
            return nullcontext()
        return _trace.span(name, parent_id=parent, collector=self.collector, **attrs)

    def write(self, path: Path) -> None:
        if self.collector is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_trace(self.collector, path)


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(collector: TraceCollector, root_name: str) -> Tuple[Dict[str, float], float, int]:
    """Per-layer self seconds under every ``root_name`` span.

    A span's self time is its duration minus the union of its children's
    intervals (clipped to the span). Returns ``(layer -> seconds, root
    uncovered share, number of roots)``; the uncovered share is the
    roots' self time over their total duration — time no layer span
    accounts for.
    """
    spans = collector.spans
    children: Dict[int, list] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    roots = [s for s in spans if s.name == root_name]
    per_layer = {layer: 0.0 for layer in LAYERS}
    root_self = root_total = 0.0
    stack = list(roots)
    while stack:
        s = stack.pop()
        kids = children.get(s.span_id, [])
        covered = _union_length(
            (max(k.start, s.start), min(k.end, s.end)) for k in kids if k.end > s.start
        )
        own = max(0.0, s.seconds - covered)
        layer = layer_of(s.name)
        per_layer[layer] = per_layer.get(layer, 0.0) + own
        if s.name == root_name:
            root_self += own
            root_total += s.seconds
        stack.extend(kids)
    uncovered = root_self / root_total if root_total > 0 else 0.0
    return per_layer, uncovered, len(roots)


def self_time_metrics(tracer: Tracer, root_name: str) -> Dict[str, float]:
    """``<layer>.self_s`` per root (unit of work) plus ``obs.uncovered_share``."""
    per_layer, uncovered, n_roots = self_times(tracer.collector, root_name)
    metrics = {f"{layer}.self_s": per_layer[layer] / max(1, n_roots) for layer in LAYERS}
    metrics["obs.uncovered_share"] = uncovered
    return metrics


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


class Outcome:
    """What a workload run produced: metrics, counts, raw samples and,
    for a traced run, the tracer holding its spans."""

    def __init__(
        self,
        metrics: Dict[str, float],
        attempted: int,
        failed: int,
        tracer: Optional[Tracer] = None,
        samples: Optional[Dict[str, List[float]]] = None,
    ) -> None:
        self.metrics = metrics
        self.attempted = int(attempted)
        self.failed = int(failed)
        self.tracer = tracer
        self.samples = samples or {}


def emit(
    outcome: Outcome,
    units: Dict[str, str],
    prov: dict,
    trace: int,
    errors: List[str],
) -> None:
    """Write the run's record under ``.bench_out`` and print the result
    line (the last line of standard output); any error makes the result
    incorrect."""
    result = {
        "correct": not errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": units.get(name, "?")}
            for name, value in outcome.metrics.items()
        },
    }
    record = {
        "provenance": prov,
        "trace": trace,
        "errors": errors,
        "samples": outcome.samples,
        "result": result,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{prov['workload']}-seed{prov['seed']}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for err in errors:
        print(f"check failed: {err}")
    print(json.dumps(result))
