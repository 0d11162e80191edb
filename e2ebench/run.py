#!/usr/bin/env python3
"""End-to-end benchmark of the SymProp reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload hoqri-contact --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (measured with tracing off);
``--trace 1`` prints the per-layer metrics from a traced run. The last
line of standard output is the result as one JSON object; the full record
(provenance included) is written under ``.bench_out/``. The exit code is
non-zero when any correctness or hygiene check fails. See README.md in
this directory for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

# Before NumPy loads: one BLAS thread, so the parent's SVD/QR does not
# compete with the process backend's workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"no program source at {SRC}: run from the repository root of a checkout")
sys.path[:0] = [str(SRC), str(HERE)]

# Temporary files (the service's checkpoint spools) stay inside the checkout.
_TMP = HERE.parent / ".bench_out" / "tmp"
_TMP.mkdir(parents=True, exist_ok=True)
os.environ["TMPDIR"] = str(_TMP)

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402

import decomp_workloads  # noqa: E402
import serve_workload  # noqa: E402
from common import OUT_DIR, CheckFailed, emit, provenance  # noqa: E402

WORKLOADS = {
    "hoqri-contact": lambda *a: decomp_workloads.run(decomp_workloads.HOQRI_CONTACT, *a),
    "hooi-trivago-proc": lambda *a: decomp_workloads.run(decomp_workloads.HOOI_TRIVAGO, *a),
    "serve-mix": lambda *a: serve_workload.run(serve_workload.SERVE_MIX, *a),
}


def _units(kind: str) -> dict:
    """Metric name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Process-backend workers are reaped when their context closes; any
    left are terminated here. The shared-memory resource tracker the
    backend starts is never waited for by the library, so it would
    outlive the run as an orphan: close its pipe and reap it.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        outcome, constants, digest, errors = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace)
        )
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        _stop_children()
    prov = provenance(args.workload, args.seed, constants, digest)
    if outcome.tracer is not None:
        outcome.tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.trace.jsonl")
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(outcome.metrics) != set(units):
        mismatch = sorted(set(outcome.metrics) ^ set(units))
        errors.append(f"metrics differ from BENCHMARK.json: {mismatch}")
    emit(outcome, units, prov, args.trace, errors)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
