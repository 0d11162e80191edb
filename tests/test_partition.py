"""Degenerate-input regressions for the non-zero partitioner.

``balanced_partition`` feeds both the chunked executor and the sharder,
so a malformed range (overlap, gap, reversed bounds) on pathological
inputs would corrupt every layer above. These cases pin the degenerate
inputs: more parts than non-zeros, all-zero costs, empty tensors.
"""

import numpy as np
import pytest

from repro.parallel.partition import (
    balanced_partition,
    block_partition,
    estimate_nonzero_costs,
)


def _assert_well_formed(ranges, n, n_parts):
    """Ranges must be exactly ``n_parts`` contiguous slices covering [0, n)."""
    assert len(ranges) == n_parts
    assert ranges[0][0] == 0
    assert ranges[-1][1] == n
    for (a, b), (c, _d) in zip(ranges, ranges[1:]):
        assert a <= b == c
    assert all(a <= b for a, b in ranges)


class TestBalancedPartitionDegenerate:
    def test_more_parts_than_costs_gives_singletons(self):
        ranges = balanced_partition(np.array([3.0, 1.0, 2.0]), 5)
        _assert_well_formed(ranges, 3, 5)
        # Every non-zero gets its own part; only the tail is empty.
        assert ranges[:3] == [(0, 1), (1, 2), (2, 3)]
        assert ranges[3:] == [(3, 3), (3, 3)]

    def test_parts_equal_costs_is_all_singletons(self):
        ranges = balanced_partition(np.array([1.0, 1.0, 1.0, 1.0]), 4)
        assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_single_cost_many_parts(self):
        ranges = balanced_partition(np.array([7.0]), 3)
        assert ranges == [(0, 1), (1, 1), (1, 1)]

    def test_all_zero_costs_fall_back_to_block_partition(self):
        # Zero costs carry no balance signal; the quantile search used to
        # put every non-zero into the last part.
        costs = np.zeros(10)
        ranges = balanced_partition(costs, 4)
        assert ranges == block_partition(10, 4)
        _assert_well_formed(ranges, 10, 4)
        widths = [b - a for a, b in ranges]
        assert max(widths) - min(widths) <= 1

    def test_empty_costs_yield_empty_ranges(self):
        ranges = balanced_partition(np.zeros(0), 3)
        assert ranges == [(0, 0)] * 3

    def test_nonfinite_total_falls_back_to_block_partition(self):
        costs = np.array([1.0, np.inf, 1.0, 1.0])
        ranges = balanced_partition(costs, 2)
        assert ranges == block_partition(4, 2)

    @pytest.mark.parametrize("n,n_parts", [(1, 1), (2, 7), (13, 4), (64, 64)])
    def test_always_well_formed(self, n, n_parts, rng):
        ranges = balanced_partition(rng.uniform(0.0, 5.0, size=n), n_parts)
        _assert_well_formed(ranges, n, n_parts)

    def test_invalid_n_parts(self):
        with pytest.raises(ValueError):
            balanced_partition(np.array([1.0]), 0)


class TestEstimateCosts:
    def test_empty_indices(self):
        costs = estimate_nonzero_costs(np.zeros((0, 3), dtype=np.int64), 4)
        assert costs.shape == (0,)

    def test_monotone_in_rank(self, rng):
        # Closed-form: a wider factor strictly increases every non-zero's
        # level work, so the whole cost vector must dominate elementwise.
        indices = np.sort(rng.integers(0, 12, size=(30, 4)), axis=1)
        low = estimate_nonzero_costs(indices, 2)
        high = estimate_nonzero_costs(indices, 6)
        assert np.all(high > low)

    def test_distinct_indices_cost_more(self):
        # A non-zero with all-distinct values spawns more sub-multisets
        # than a fully repeated one — the balance signal the sharder uses.
        indices = np.array([[0, 0, 0, 0], [1, 2, 3, 4]])
        costs = estimate_nonzero_costs(indices, 3)
        assert costs[1] > costs[0]
