"""Tests for the closed-form memory model (who OOMs where)."""

import math

import pytest

from repro.perfmodel.memory import (
    expanded_coo_bytes,
    footprint_table,
    intermediate_bytes_bound,
    kernel_footprint,
    lattice_level_nodes_bound,
    suggest_nz_batch,
    worker_footprint,
    y_compact_bytes,
    y_full_bytes,
)
from repro.serve import JobSpec, predict_job_peak_bytes
from repro.symmetry.combinatorics import dense_size, sym_storage_size


class TestFootprintFormulas:
    def test_y_sizes(self):
        assert y_full_bytes(100, 4, 3) == 100 * 27 * 8
        assert y_compact_bytes(100, 4, 3) == 100 * sym_storage_size(3, 3) * 8

    def test_compact_never_larger(self):
        for order in range(3, 10):
            for rank in range(1, 10):
                assert y_compact_bytes(50, order, rank) <= y_full_bytes(50, order, rank)

    def test_expanded_bytes(self):
        assert expanded_coo_bytes(3, 10) == 6 * 10 * (3 * 8 + 8)

    def test_walmart_paper_numbers(self):
        """The 4.6 TB vs 5.3 GB comparison of Section VI-C-1."""
        full = y_full_bytes(62_240, 8, 10)
        compact = y_compact_bytes(62_240, 8, 10)
        assert full == pytest.approx(4.6 * 1e12, rel=0.15)
        assert compact == pytest.approx(5.3 * 1e9, rel=0.15)
        # "99.88% reduction in size"
        assert 1 - compact / full == pytest.approx(0.9988, abs=0.001)

    def test_level_nodes_bound(self):
        assert lattice_level_nodes_bound(6, 3, 100) == math.comb(6, 3) * 100

    def test_intermediate_bound_compact_vs_full(self):
        compact = intermediate_bytes_bound(6, 4, 100, "compact")
        full = intermediate_bytes_bound(6, 4, 100, "full")
        assert compact < full


class TestSuggestBatch:
    def test_no_batching_when_cheap(self):
        batch = suggest_nz_batch(3, 2, "compact", 2**30)
        assert batch == 512  # capped at default

    def test_small_batch_when_tight(self):
        # per-non-zero worst level: C(10,9) * 5^9 * 8 B ≈ 156 MB
        batch = suggest_nz_batch(10, 5, "full", 4 * 2**30)
        assert batch is not None and 0 < batch < 512

    def test_zero_when_hopeless(self):
        # one non-zero's full lattice exceeds a 1 MB budget at order 10 rank 5
        assert suggest_nz_batch(10, 5, "full", 2**20) == 0


class TestKernelFootprint:
    def test_splatt_dominated_by_expansion_at_high_order(self):
        fp = kernel_footprint("splatt", 400, 10, 4, 1000)
        assert fp.expansion > fp.output

    def test_symprop_smallest_output(self):
        table = footprint_table(1000, 7, 6, 5000)
        assert table["symprop"].output < table["css"].output
        assert table["symprop"].output < table["splatt"].output

    def test_hooi_svd_pays_full_expansion(self):
        fp = kernel_footprint("hooi-svd", 4000, 8, 6, 1500)
        assert fp.intermediates == y_full_bytes(4000, 8, 6)

    def test_oom_ordering_matches_paper(self):
        """Under one budget: SPLATT dies first, CSS second, SymProp lives.

        (Order sweep shape of Fig. 5b.)
        """
        budget = int(1.5 * 2**30)
        dim, rank, unnz = 400, 4, 10_000
        died = {}
        for kernel in ("splatt", "css", "symprop"):
            died[kernel] = None
            for order in range(4, 15):
                fp = kernel_footprint(kernel, dim, order, rank, unnz, nz_batch=16)
                if not fp.fits(budget):
                    died[kernel] = order
                    break
        assert died["splatt"] is not None and died["css"] is not None
        assert died["splatt"] < died["css"]
        assert died["symprop"] is None or died["symprop"] > died["css"]

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            kernel_footprint("cusparse", 10, 3, 2, 10)

    def test_fits(self):
        fp = kernel_footprint("symprop", 10, 3, 2, 10)
        assert fp.fits(10**9)
        assert not fp.fits(10)


class TestWorkerFootprint:
    def test_tensor_term_is_one_balanced_shard(self):
        fp = worker_footprint(100, 4, 3, 1001, n_workers=4)
        assert fp.tensor == 251 * (4 * 8 + 8)  # ceil(1001 / 4) non-zeros
        assert fp.partial == 100 * sym_storage_size(3, 3) * 8  # rows <= dim

    def test_shard_shrinks_with_workers(self):
        two = worker_footprint(100, 4, 3, 1000, n_workers=2)
        eight = worker_footprint(100, 4, 3, 1000, n_workers=8)
        assert two.tensor == 4 * eight.tensor

    def test_admission_charges_shards_not_tensor_copies(self, rng):
        from tests.conftest import make_random_tensor

        x = make_random_tensor(4, 30, 400, rng)
        spec = JobSpec(kind="s3ttmc", tensor=x, factor=rng.random((30, 3)))
        per_nz = x.order * 8 + 8
        operands = x.unnz * per_nz + x.dim * 3 * 8
        serial = predict_job_peak_bytes(spec)
        parallel = predict_job_peak_bytes(spec, execution="process", n_workers=4)
        fp = worker_footprint(x.dim, x.order, 3, x.unnz, n_workers=4)
        assert parallel == operands + max(serial - operands, 4 * fp.total)
        # Four workers together hold about one copy of the tensor.
        assert 4 * fp.tensor < x.unnz * per_nz + 4 * per_nz

