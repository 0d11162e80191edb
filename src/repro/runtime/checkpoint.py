"""Iteration checkpointing for long decomposition runs.

HOOI/HOQRI sweeps on the paper's large datasets run for hours; a killed
process must not forfeit the iterations already paid for. Drivers pass
``checkpoint_dir=`` to persist their full per-sweep state — factor (and
HOQRI's pre-QR update matrix), core, convergence trace, objective
bookkeeping, and the run configuration — after each iteration, and
``resume=True`` to continue a killed run *bit-for-bit*: the iteration
loop restarts from the exact arrays the checkpoint holds, so the resumed
trajectory is indistinguishable from an uninterrupted one.

Format
------
One rolling ``checkpoint.npz`` per directory, written atomically:
arrays are serialized with :func:`numpy.savez` into a same-directory
temporary file, flushed and fsynced, then :func:`os.replace`d over the
previous checkpoint — a crash mid-write leaves the old checkpoint
intact, never a torn file. Scalar state and the config fingerprint
travel in an embedded JSON document (``meta``); the config records the
algorithm, rank, kernel and a tensor fingerprint
``(dim, order, unnz, values-sum)`` so a checkpoint cannot silently
resume against the wrong run; parallel runs also record the shard map
(``shard_ranges``).

Version 2 marks the single owned-shard execution model. Version-1
checkpoints of parallel runs were written under a whole-tensor
distribution whose reduction order differs, so resuming one would be
allclose rather than bitwise; they are refused with ``ValueError``.

Checkpoint I/O is observable: ``checkpoint.save`` / ``checkpoint.load``
spans plus ``checkpoint.saves`` / ``checkpoint.loads`` counters and a
``checkpoint.bytes`` gauge on the run's collector.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .context import ExecContext, resolve_context

__all__ = [
    "CHECKPOINT_FILENAME",
    "CHECKPOINT_VERSION",
    "CheckpointState",
    "checkpoint_path",
    "load_checkpoint",
    "save_checkpoint",
    "tensor_fingerprint",
]

CHECKPOINT_VERSION = 2
CHECKPOINT_FILENAME = "checkpoint.npz"


def _normalize_config_value(value: Any) -> Any:
    """JSON-shape a config value for comparison: tuples become lists,
    integer-like scalars become ``int`` — matching what a save/load
    roundtrip does to the stored side."""
    if isinstance(value, (list, tuple)):
        return [_normalize_config_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize_config_value(v) for k, v in value.items()}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def tensor_fingerprint(tensor: Any) -> Dict[str, Any]:
    """Cheap identity fingerprint binding a checkpoint to its input."""
    return {
        "dim": int(tensor.dim),
        "order": int(tensor.order),
        "unnz": int(tensor.unnz),
        "values_sum": float(np.sum(tensor.values)),
    }


@dataclass
class CheckpointState:
    """Everything needed to continue a decomposition run bit-for-bit.

    ``factor`` is the factor matrix *after* ``iteration`` completed;
    ``a`` is HOQRI's pre-QR update matrix (``None`` for HOOI);
    ``core_data`` is the compact core unfolding so a fully-converged
    checkpoint can reconstruct its result without iterating. ``config``
    carries the run fingerprint checked on resume.
    """

    algorithm: str
    iteration: int
    factor: np.ndarray
    prev_objective: float
    norm_x_squared: float
    converged: bool
    objective: List[float] = field(default_factory=list)
    relative_error: List[float] = field(default_factory=list)
    core_norm_squared: List[float] = field(default_factory=list)
    a: Optional[np.ndarray] = None
    core_data: Optional[np.ndarray] = None
    core_nrows: int = 0
    config: Dict[str, Any] = field(default_factory=dict)

    def check_config(self, expected: Dict[str, Any]) -> None:
        """Raise ``ValueError`` on any config-field mismatch.

        Sequences are compared structurally (tuples and lists equal when
        their elements are): the config travels through JSON, which turns
        every tuple into a list, and values like the sharded-run shard
        map (``"shard_ranges"``: a sequence of ``(start, stop)`` pairs)
        must roundtrip regardless of which container the driver built
        them in.
        """
        for key, want in expected.items():
            got = self.config.get(key)
            if isinstance(want, float) or isinstance(got, float):
                same = (
                    got is not None
                    and want is not None
                    and float(got) == float(want)
                )
            else:
                same = _normalize_config_value(got) == _normalize_config_value(
                    want
                )
            if not same:
                raise ValueError(
                    f"checkpoint config mismatch for {key!r}: "
                    f"checkpoint has {got!r}, run expects {want!r}"
                )


def checkpoint_path(directory: Union[str, Path]) -> Path:
    """The rolling checkpoint file inside ``directory``."""
    return Path(directory) / CHECKPOINT_FILENAME


def save_checkpoint(
    directory: Union[str, Path],
    state: CheckpointState,
    *,
    ctx: Optional[ExecContext] = None,
) -> Path:
    """Atomically persist ``state`` into ``directory`` (created if needed).

    Write-to-temp + fsync + :func:`os.replace`: at every instant the
    directory holds either the previous complete checkpoint or the new
    one, never a partial file. Returns the checkpoint path.
    """
    ctx = resolve_context(ctx)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = checkpoint_path(directory)
    meta = {
        "version": CHECKPOINT_VERSION,
        "algorithm": state.algorithm,
        "iteration": int(state.iteration),
        "prev_objective": float(state.prev_objective),
        "norm_x_squared": float(state.norm_x_squared),
        "converged": bool(state.converged),
        "core_nrows": int(state.core_nrows),
        "config": state.config,
    }
    arrays: Dict[str, np.ndarray] = {
        "factor": np.asarray(state.factor, dtype=np.float64),
        "objective": np.asarray(state.objective, dtype=np.float64),
        "relative_error": np.asarray(state.relative_error, dtype=np.float64),
        "core_norm_squared": np.asarray(
            state.core_norm_squared, dtype=np.float64
        ),
        "meta_json": np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
    }
    if state.a is not None:
        arrays["a"] = np.asarray(state.a, dtype=np.float64)
    if state.core_data is not None:
        arrays["core_data"] = np.asarray(state.core_data, dtype=np.float64)

    with ctx.span(
        "checkpoint.save", iteration=state.iteration, algorithm=state.algorithm
    ):
        fd, tmp_name = tempfile.mkstemp(
            prefix=".checkpoint.", suffix=".npz.tmp", dir=str(directory)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    metrics = ctx.metrics
    if metrics is not None:
        metrics.counter("checkpoint.saves").inc()
        metrics.gauge("checkpoint.bytes").update_max(target.stat().st_size)
    return target


def load_checkpoint(
    directory: Union[str, Path], *, ctx: Optional[ExecContext] = None
) -> Optional[CheckpointState]:
    """Load the checkpoint in ``directory``; ``None`` when absent."""
    ctx = resolve_context(ctx)
    target = checkpoint_path(directory)
    if not target.is_file():
        return None
    with ctx.span("checkpoint.load"):
        with np.load(target) as data:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version {meta.get('version')!r} "
                    f"in {target}"
                )
            state = CheckpointState(
                algorithm=meta["algorithm"],
                iteration=int(meta["iteration"]),
                factor=np.array(data["factor"]),
                prev_objective=float(meta["prev_objective"]),
                norm_x_squared=float(meta["norm_x_squared"]),
                converged=bool(meta["converged"]),
                objective=[float(v) for v in data["objective"]],
                relative_error=[float(v) for v in data["relative_error"]],
                core_norm_squared=[float(v) for v in data["core_norm_squared"]],
                a=np.array(data["a"]) if "a" in data.files else None,
                core_data=(
                    np.array(data["core_data"])
                    if "core_data" in data.files
                    else None
                ),
                core_nrows=int(meta.get("core_nrows", 0)),
                config=dict(meta.get("config", {})),
            )
    metrics = ctx.metrics
    if metrics is not None:
        metrics.counter("checkpoint.loads").inc()
    return state
