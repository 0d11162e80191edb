"""Sharded execution: every backend runs owned tensor shards.

Covers the whole owned-sharding stack: the sharder and its invariants,
the deterministic hierarchical merge (and its exchange-event contract
with ``merge_schedule``), the shard path on every backend (bitwise
across backends, allclose vs the canonical serial kernel), the
``parallel.shard_bytes`` memory acceptance bound, shard re-ingest after
a worker crash, context/checkpoint plumbing, and the distributed
simulator's plan-vs-trace agreement.
"""

import numpy as np
import pytest

from repro.core import s3ttmc
from repro.decomp import hooi, hoqri
from repro.obs.trace import TraceCollector
from repro.parallel import (
    ParallelRunReport,
    build_shards,
    exchange_from_trace,
    hierarchical_merge,
    merge_schedule,
    parallel_s3ttmc,
    partition_ranges,
    plan_sharded_exchange,
    shard_resident_bytes,
    simulate_sharded_time,
)
from repro.perfmodel import predict_parallel_seconds, worker_footprint, RateCalibration
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_path,
    load_checkpoint,
)
from repro.runtime.context import ExecContext
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.symmetry.combinatorics import sym_storage_size
from tests.conftest import make_random_tensor


@pytest.fixture
def workload(rng):
    tensor = make_random_tensor(4, 24, 200, rng)
    factor = rng.standard_normal((24, 4))
    return tensor, factor


def _owned(tensor, factor, backend, n_workers=4, **kwargs):
    report = kwargs.pop("report", None) or ParallelRunReport()
    data = parallel_s3ttmc(
        tensor,
        factor,
        n_workers,
        backend=backend,
        report=report,
        **kwargs,
    ).data
    return data, report


class TestBuildShards:
    def test_shards_cover_disjointly(self, workload):
        tensor, factor = workload
        shards = build_shards(tensor, 4, factor.shape[1])
        assert shards[0].start == 0
        assert shards[-1].stop == tensor.unnz
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_shards_match_executor_partition(self, workload):
        # A shard's nz slice must equal the executor's chunk range for the
        # same partition — that identity is what makes per-shard partials
        # bitwise-reproducible across backends.
        tensor, factor = workload
        ranges = partition_ranges(tensor, factor.shape[1], 4)
        shards = build_shards(tensor, 4, factor.shape[1])
        assert [(s.start, s.stop) for s in shards] == list(ranges)

    def test_shard_views_alias_parent(self, workload):
        tensor, factor = workload
        shard = build_shards(tensor, 4, factor.shape[1])[0]
        assert shard.indices.base is not None
        assert np.shares_memory(shard.indices, tensor.indices)
        assert np.shares_memory(shard.values, tensor.values)

    def test_row_block_structure(self, workload):
        tensor, factor = workload
        for shard in build_shards(tensor, 4, factor.shape[1]):
            assert np.array_equal(shard.rows, np.unique(shard.indices))
            # row_map inverts rows, -1 elsewhere
            assert np.array_equal(shard.row_map[shard.rows], np.arange(shard.n_rows))
            untouched = np.setdiff1d(np.arange(tensor.dim), shard.rows)
            assert np.all(shard.row_map[untouched] == -1)

    def test_costs_positive_and_balanced(self, workload):
        tensor, factor = workload
        shards = build_shards(tensor, 4, factor.shape[1])
        costs = [s.cost for s in shards]
        assert all(c > 0 for c in costs)
        assert max(costs) <= 2.5 * min(costs)

    def test_resident_bytes_owned_vs_broadcast(self, workload):
        # "Broadcast" is a whole-tensor copy per worker, the layout the
        # owned bound was set against: unnz · (8N + 8) bytes.
        tensor, factor = workload
        ranges = partition_ranges(tensor, factor.shape[1], 4)
        owned = shard_resident_bytes(tensor.order, ranges)
        per_nz = tensor.order * 8 + 8
        whole_tensor = tensor.unnz * per_nz
        assert owned == max(b - a for a, b in ranges) * per_nz
        assert owned <= whole_tensor / 2
        assert shard_resident_bytes(tensor.order, []) == 0


class TestHierarchicalMerge:
    def test_matches_flat_sum(self, rng):
        dim, cols = 30, 6
        partials = []
        expected = np.zeros((dim, cols))
        for _ in range(5):
            rows = np.unique(rng.integers(0, dim, size=12))
            block = rng.standard_normal((rows.shape[0], cols))
            partials.append((rows, block))
            expected[rows] += block
        merged = hierarchical_merge(partials, dim, cols)
        assert np.allclose(merged, expected, atol=1e-12)

    def test_deterministic(self, rng):
        dim, cols = 20, 4
        partials = [
            (np.unique(rng.integers(0, dim, size=8)), None) for _ in range(4)
        ]
        partials = [
            (rows, np.arange(rows.shape[0] * cols, dtype=np.float64).reshape(-1, cols))
            for rows, _ in partials
        ]
        a = hierarchical_merge(partials, dim, cols)
        b = hierarchical_merge(partials, dim, cols)
        assert np.array_equal(a, b)

    def test_single_partial_and_empty(self):
        rows = np.array([1, 3])
        block = np.array([[1.0], [2.0]])
        out = hierarchical_merge([(rows, block)], 5, 1)
        assert np.array_equal(out[:, 0], [0.0, 1.0, 0.0, 2.0, 0.0])
        assert np.array_equal(hierarchical_merge([], 4, 2), np.zeros((4, 2)))

    def test_emitted_exchanges_match_schedule(self, rng):
        dim, cols = 40, 3
        row_sets = [np.unique(rng.integers(0, dim, size=15)) for _ in range(5)]
        partials = [
            (rows, rng.standard_normal((rows.shape[0], cols))) for rows in row_sets
        ]
        collector = TraceCollector()
        ctx = ExecContext(collector=collector)
        hierarchical_merge(partials, dim, cols, ctx=ctx)
        assert exchange_from_trace(collector) == merge_schedule(row_sets, cols)

    def test_schedule_rounds_and_bytes(self):
        row_sets = [np.arange(10), np.arange(5), np.arange(7), np.arange(3)]
        schedule = merge_schedule(row_sets, cols=2)
        # 4 shards -> 2 rounds: (0,1), (2,3), then the two survivors.
        assert [e["round"] for e in schedule] == [0, 0, 1]
        assert schedule[0]["rows"] == 5  # right operand ships
        assert all(e["bytes"] == e["rows"] * (2 * 8 + 8) for e in schedule)


class TestOwnedShardingBackends:
    def test_serial_owned_allclose_canonical(self, workload):
        tensor, factor = workload
        canonical = s3ttmc(tensor, factor).data
        data, report = _owned(tensor, factor, "serial")
        assert np.allclose(data, canonical, atol=1e-10)
        assert report.sharding == "owned"
        assert report.reduce_seconds > 0

    def test_thread_bitwise_matches_serial_owned(self, workload):
        tensor, factor = workload
        base, _ = _owned(tensor, factor, "serial")
        data, _ = _owned(tensor, factor, "thread")
        assert np.array_equal(data, base)

    def test_process_bitwise_matches_serial_owned(self, workload):
        tensor, factor = workload
        base, _ = _owned(tensor, factor, "serial")
        data, report = _owned(tensor, factor, "process")
        assert np.array_equal(data, base)
        assert report.backend == "process"

    def test_compiled_kernel_owned(self, workload):
        tensor, factor = workload
        base, _ = _owned(tensor, factor, "serial", kernel="compiled")
        thread, _ = _owned(tensor, factor, "thread", kernel="compiled")
        assert np.array_equal(thread, base)
        canonical = s3ttmc(tensor, factor).data
        assert np.allclose(base, canonical, atol=1e-10)



    def test_process_backend_needs_an_owner_per_shard(self, workload):
        # Shard k runs only on worker k: more shards than workers must
        # fail at once instead of waiting forever for a missing owner.
        from repro.parallel import make_backend, shm

        tensor, factor = workload
        base, _ = _owned(tensor, factor, "serial", n_workers=2)
        with make_backend("process", 2) as backend:
            with pytest.raises(ValueError, match="3 shards"):
                parallel_s3ttmc(tensor, factor, 3, backend=backend)
            assert not shm.live_segments(backend.run_token)
            data, _ = _owned(tensor, factor, backend, n_workers=2)
        assert np.array_equal(data, base)


class TestMemoryAcceptance:
    def test_owned_gauge_at_most_half_of_broadcast(self, workload):
        # The acceptance criterion: order-4 workload, 4 process workers,
        # the parallel.shard_bytes gauge (largest per-worker resident
        # tensor bytes) <= 0.5x a whole-tensor broadcast copy,
        # unnz · (8N + 8) bytes.
        tensor, factor = workload
        collector = TraceCollector()
        ctx = ExecContext(collector=collector)
        parallel_s3ttmc(tensor, factor, 4, backend="process", ctx=ctx)
        gauge = collector.metrics.gauge("parallel.shard_bytes").value
        whole_tensor = tensor.unnz * (tensor.order * 8 + 8)
        assert 0 < gauge <= 0.5 * whole_tensor

    def test_worker_footprint_model_agrees(self, workload):
        tensor, factor = workload
        rank = factor.shape[1]
        model = worker_footprint(
            tensor.dim, tensor.order, rank, tensor.unnz, n_workers=4
        )
        per_nz = tensor.order * 8 + 8
        assert model.tensor <= 0.5 * tensor.unnz * per_nz
        assert model.tensor >= (tensor.unnz // 4) * per_nz
        # Passing the real widest shard makes the tensor term exact.
        ranges = partition_ranges(tensor, rank, 4)
        real = shard_resident_bytes(tensor.order, ranges)
        widest = max(b - a for a, b in ranges)
        exact = worker_footprint(
            tensor.dim, tensor.order, rank, tensor.unnz, n_workers=4,
            shard_nnz=widest,
        )
        assert exact.tensor == real

    def test_worker_footprint_validation(self):
        with pytest.raises(ValueError):
            worker_footprint(10, 3, 2, 50, n_workers=0)


class TestShardLossRecovery:
    def test_crash_recovers_via_reingest(self, workload):
        tensor, factor = workload
        base, _ = _owned(tensor, factor, "serial")
        injector = FaultInjector(
            [FaultSpec(site="chunk", kind="crash", match={"slot": 1})], seed=0
        )
        collector = TraceCollector()
        ctx = ExecContext(collector=collector, faults=injector)
        report = ParallelRunReport()
        data, report = _owned(tensor, factor, "process", ctx=ctx, report=report)
        assert injector.n_fired == 1
        assert report.respawns >= 1
        assert report.shard_reingests >= 1
        assert report.fallbacks == 0  # recovered, not degraded
        assert np.array_equal(data, base)
        assert collector.metrics.counter("parallel.shard_reingests").value >= 1

    def test_reingest_counter_zero_on_clean_run(self, workload):
        tensor, factor = workload
        _data, report = _owned(tensor, factor, "process")
        assert report.shard_reingests == 0
        assert report.respawns == 0


class TestContextPlumbing:
    def test_serialization_roundtrip(self):
        # One execution model: nothing distribution-specific is
        # serialized, and a spec written while the distribution was a
        # setting still loads.
        ctx = ExecContext(execution="process", n_workers=4)
        spec = ctx.to_dict()
        assert "sharding" not in spec and "reduction" not in spec
        legacy = dict(spec, sharding="broadcast", reduction="tree")
        restored = ExecContext.from_dict(legacy)
        assert restored.execution == "process"
        assert restored.n_workers == 4


class TestDecompositionWiring:
    def test_hooi_owned_matches_serial(self, workload):
        tensor, _ = workload
        serial = hooi(tensor, 3, max_iters=3, seed=7)
        owned = hooi(
            tensor, 3, max_iters=3, seed=7, execution="thread", n_workers=3
        )
        assert np.allclose(owned.factor, serial.factor, atol=1e-8)

    def test_hoqri_owned_matches_serial(self, workload):
        tensor, _ = workload
        serial = hoqri(tensor, 3, max_iters=3, seed=7)
        owned = hoqri(
            tensor, 3, max_iters=3, seed=7, execution="thread", n_workers=3
        )
        assert np.allclose(owned.factor, serial.factor, atol=1e-8)

    def test_checkpoint_records_shard_map(self, workload, tmp_path):
        tensor, _ = workload
        hooi(
            tensor, 3, max_iters=2, seed=7, execution="thread", n_workers=3,
            checkpoint_dir=tmp_path,
        )
        state = load_checkpoint(tmp_path)
        ranges = state.config["shard_ranges"]
        assert ranges[0][0] == 0 and ranges[-1][1] == tensor.unnz
        # Resume under the same layout continues; a different layout is
        # rejected (the shard map is part of the run identity).
        hooi(
            tensor, 3, max_iters=4, seed=7, execution="thread", n_workers=3,
            checkpoint_dir=tmp_path, resume=True,
        )
        with pytest.raises(ValueError, match="shard_ranges"):
            hooi(
                tensor, 3, max_iters=4, seed=7, execution="thread", n_workers=2,
                checkpoint_dir=tmp_path, resume=True,
            )

    @pytest.mark.parametrize("execution", ["thread", "process"])
    @pytest.mark.parametrize("driver", [hooi, hoqri])
    def test_every_parallel_checkpoint_records_shard_ranges(
        self, workload, tmp_path, execution, driver
    ):
        tensor, factor = workload
        driver(
            tensor, 3, max_iters=1, seed=7, execution=execution, n_workers=2,
            checkpoint_dir=tmp_path,
        )
        state = load_checkpoint(tmp_path)
        assert state.config["shard_ranges"] == [
            list(r) for r in partition_ranges(tensor, 3, 2)
        ]
        assert "sharding" not in state.config
        # A serial run has no shard map to pin.
        serial_dir = tmp_path / "serial"
        driver(tensor, 3, max_iters=1, seed=7, checkpoint_dir=serial_dir)
        assert "shard_ranges" not in load_checkpoint(serial_dir).config

    def test_v1_checkpoint_refused(self, workload, tmp_path):
        # Version-1 checkpoints of parallel runs were written under the
        # whole-tensor distribution, whose reduction order differs:
        # resuming one would be allclose, not bitwise, so it is refused.
        import json

        tensor, _ = workload
        hooi(
            tensor, 3, max_iters=1, seed=7, execution="thread", n_workers=3,
            checkpoint_dir=tmp_path,
        )
        assert CHECKPOINT_VERSION == 2
        path = checkpoint_path(tmp_path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
        meta["version"] = 1
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(tmp_path)
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            hooi(
                tensor, 3, max_iters=2, seed=7, execution="thread", n_workers=3,
                checkpoint_dir=tmp_path, resume=True,
            )


class TestShardedExchangeModel:
    def test_plan_matches_trace(self, workload):
        tensor, factor = workload
        collector = TraceCollector()
        ctx = ExecContext(collector=collector)
        parallel_s3ttmc(tensor, factor, 4, backend="serial", ctx=ctx)
        plan = plan_sharded_exchange(tensor, 4, factor.shape[1], ctx=ctx)
        assert exchange_from_trace(collector) == plan.exchanges

    def test_plan_shape(self, workload):
        tensor, factor = workload
        rank = factor.shape[1]
        plan = plan_sharded_exchange(tensor, 4, rank)
        assert plan.n_shards == 4
        assert plan.cols == sym_storage_size(tensor.order - 1, rank)
        assert plan.n_rounds == 2  # 4 shards -> pairwise tree of depth 2
        assert len(plan.exchanges) == 3
        assert plan.total_exchange_bytes == sum(e["bytes"] for e in plan.exchanges)
        assert plan.imbalance() >= 1.0

    def test_single_shard_no_exchange(self, workload):
        tensor, factor = workload
        plan = plan_sharded_exchange(tensor, 1, factor.shape[1])
        assert plan.exchanges == []
        assert plan.n_rounds == 0
        assert simulate_sharded_time(plan) == plan.shard_costs[0] / 1e9

    def test_simulated_time_terms(self, workload):
        tensor, factor = workload
        plan = plan_sharded_exchange(tensor, 4, factor.shape[1])
        compute_only = simulate_sharded_time(
            plan, bandwidth_bytes=1e15, latency_seconds=0.0
        )
        assert compute_only == pytest.approx(max(plan.shard_costs) / 1e9, rel=1e-6)
        with_latency = simulate_sharded_time(plan, latency_seconds=1.0)
        assert with_latency >= compute_only + plan.n_rounds
        slow_net = simulate_sharded_time(
            plan, bandwidth_bytes=1e3, latency_seconds=0.0
        )
        assert slow_net > compute_only

    def test_invalid_shards(self, workload):
        tensor, factor = workload
        with pytest.raises(ValueError):
            plan_sharded_exchange(tensor, 0, factor.shape[1])


class TestPredictParallel:
    def test_single_worker_has_no_reduce_term(self):
        cal = RateCalibration()
        cal.record("symprop", 1e9, 1.0)
        serial_like = predict_parallel_seconds(
            cal, "symprop", 4, 4, 1000, n_workers=1
        )
        from repro.perfmodel import predict_seconds

        assert serial_like == pytest.approx(
            predict_seconds(cal, "symprop", 4, 4, 1000), rel=1e-9
        )

    def test_uncalibrated_returns_none(self):
        assert (
            predict_parallel_seconds(
                RateCalibration(), "symprop", 4, 4, 100, n_workers=4
            )
            is None
        )

    def test_validation(self):
        cal = RateCalibration()
        cal.record("symprop", 1e9, 1.0)
        with pytest.raises(ValueError):
            predict_parallel_seconds(cal, "symprop", 4, 4, 100, n_workers=0)
