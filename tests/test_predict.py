"""Tests for the runtime-prediction model."""

import math

import pytest

from repro.perfmodel import (
    RateCalibration,
    kernel_flops_model,
    predict_parallel_seconds,
    predict_seconds,
    total_css,
    total_sp,
)
from repro.symmetry.combinatorics import sym_storage_size


class TestFlopModel:
    def test_symprop_matches_total_sp(self):
        assert kernel_flops_model("symprop", 5, 3, 100) == total_sp(5, 3, 100)
        assert kernel_flops_model("symprop-tc", 5, 3, 100) == total_sp(5, 3, 100)

    def test_css_matches_total_css(self):
        assert kernel_flops_model("css", 5, 3, 100) == total_css(5, 3, 100)

    def test_cp_cheaper_than_tucker(self):
        for order in (4, 6, 8):
            cp = kernel_flops_model("cp", order, 4, 100)
            tucker = kernel_flops_model("symprop", order, 4, 100)
            assert cp < tucker

    def test_splatt_grows_with_factorial(self):
        small = kernel_flops_model("splatt", 4, 3, 100, dim=1000)
        big = kernel_flops_model("splatt", 6, 3, 100, dim=1000)
        assert big > small * 10

    def test_splatt_caps_nodes_at_dim_power(self):
        # tiny dim: shallow levels saturate at dim^{d+1} nodes
        capped = kernel_flops_model("splatt", 5, 2, 1000, dim=2)
        uncapped = kernel_flops_model("splatt", 5, 2, 1000, dim=10**6)
        assert capped < uncapped

    def test_nary(self):
        assert kernel_flops_model("hoqri-nary", 3, 2, 10) == 2 * 8 * math.factorial(3) * 10

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            kernel_flops_model("cusparse", 3, 2, 10)


class TestCalibration:
    def test_median_rate(self):
        calib = RateCalibration()
        calib.record("symprop", 1e9, 1.0)
        calib.record("symprop", 3e9, 1.0)
        calib.record("symprop", 2e9, 1.0)
        assert calib.rate("symprop") == pytest.approx(2e9)

    def test_fallback_to_pooled(self):
        calib = RateCalibration()
        calib.record("css", 1e9, 1.0)
        assert calib.rate("symprop") == pytest.approx(1e9)

    def test_no_samples(self):
        assert RateCalibration().rate("symprop") is None

    def test_too_fast_samples_ignored(self):
        calib = RateCalibration()
        calib.record("symprop", 100.0, 1e-6)  # sub-resolution timing
        assert calib.rate("symprop") is None

    def test_predict_seconds(self):
        calib = RateCalibration()
        calib.record("symprop", 1e8, 1.0)  # 100 Mflop/s
        est = predict_seconds(calib, "symprop", 5, 3, 100)
        assert est == pytest.approx(total_sp(5, 3, 100) / 1e8)

    def test_predict_without_calibration(self):
        assert predict_seconds(RateCalibration(), "symprop", 5, 3, 100) is None


class TestPredictParallelShards:
    def test_reduce_term_is_log_rounds_of_one_row_block(self):
        # Owned shards merge pairwise: ceil(log2 p) rounds, each moving at
        # most one (rows, S) block, rows = min(dim, ceil(unnz/p) * order).
        calib = RateCalibration()
        calib.record("symprop", 1e9, 1.0)
        serial = predict_seconds(calib, "symprop", 4, 3, 1000, 50)
        for n_workers, rounds in ((2, 1), (5, 3), (8, 3)):
            got = predict_parallel_seconds(
                calib, "symprop", 4, 3, 1000, n_workers=n_workers, dim=50,
                reduce_bandwidth_bytes=1.0,
            )
            block = 50 * sym_storage_size(3, 3) * 8
            assert got == pytest.approx(serial / n_workers + rounds * block)

