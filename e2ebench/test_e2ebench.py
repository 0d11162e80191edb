"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# serve-mix is runnable but not in BENCHMARK.json (see README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve-mix"]

sys.path[:0] = [str(HERE)]
import compare  # noqa: E402


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


def _session_members(sid: int) -> list:
    """Pids of the processes (zombies included) in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # fields after the name: state ppid pgrp session
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_run_leaves_no_process_behind():
    # The process backend starts workers and a resource tracker; run in a
    # session of its own, so anything left over is found by session id.
    proc = subprocess.Popen(
        [
            sys.executable, "e2ebench/run.py",
            "--workload", "hooi-trivago-proc",
            "--seed", "3",
            "--seconds", "0.1",
            "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, out[-3000:] + err[-3000:]
    assert _session_members(proc.pid) == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(
        "e2ebench/run.py",
        "--workload", workload,
        "--seed", "3",
        "--seconds", "0.1",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


_DIGESTS = """
import sys
sys.path[:0] = ["src", "e2ebench"]
import decomp_workloads as d, serve_workload as s
from common import input_digest
from repro import load_dataset
from repro.decomp import initialize
import numpy as np
seed = int(sys.argv[1])
for w in (d.HOQRI_CONTACT, d.HOOI_TRIVAGO):
    x = load_dataset(w.dataset, seed=seed)
    print(input_digest([x], initialize(x, w.rank, "random", np.random.default_rng(seed))))
print(s.make_plan(s.SERVE_MIX, seed).digest())
"""


def test_fixed_seed_gives_byte_identical_input_digest():
    first = _run("-c", _DIGESTS, "5")
    second = _run("-c", _DIGESTS, "5")
    other = _run("-c", _DIGESTS, "6")
    for proc in (first, second, other):
        assert proc.returncode == 0, proc.stderr
    assert first.stdout == second.stdout
    assert len(first.stdout.split()) == len(WORKLOADS)
    assert set(first.stdout.split()).isdisjoint(other.stdout.split())


def _record(tmp_path: Path, name: str, **changes) -> Path:
    prov = {
        "cpu_count": 2,
        "python": "3.11.7",
        "numpy": "2.4.6",
        "blas": "openblas 0.3",
        "blas_threads": {"OPENBLAS_NUM_THREADS": "1"},
        "workload": "serve-mix",
        "constants": {"n_open": 1000},
        "seed": 1,
        "git_commit": "a",
    }
    prov.update(changes)
    record = {
        "provenance": prov,
        "trace": 0,
        "result": {"metrics": {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"]}},
    }
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return path


@pytest.mark.parametrize(
    "changes",
    [
        {"cpu_count": 4},
        {"numpy": "2.0.0"},
        {"blas_threads": {"OPENBLAS_NUM_THREADS": None}},
        {"constants": {"n_open": 10}},
        {"workload": "hoqri-contact"},
    ],
)
def test_compare_refuses_records_whose_provenance_differs(tmp_path, changes):
    base = _record(tmp_path, "base.json")
    new = _record(tmp_path, "new.json", **changes)
    proc = _run("e2ebench/compare.py", str(base), "--", str(new))
    assert proc.returncode == 2
    assert "refused" in proc.stderr


def test_compare_accepts_other_seed_and_commit(tmp_path):
    base = _record(tmp_path, "base.json")
    new = _record(tmp_path, "new.json", seed=9, git_commit="b")
    proc = _run("e2ebench/compare.py", str(base), "--", str(new))
    assert proc.returncode == 0, proc.stderr
    assert "work_s" in proc.stdout
    assert compare.refusal_reasons([json.loads(base.read_text())] * 2) == []
