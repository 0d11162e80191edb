"""Non-zero partitioning for parallel S³TTMc.

The paper parallelizes over IOU non-zeros with OpenMP (spread binding).
We reproduce the decomposition of work: partition the non-zero list into
chunks, either by count or balanced by an estimated per-non-zero cost
(the level-wise sub-multiset work, which varies with the number of
distinct index values per non-zero).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..symmetry.combinatorics import binomial, sym_storage_size

__all__ = [
    "estimate_nonzero_costs",
    "block_partition",
    "balanced_partition",
]


def estimate_nonzero_costs(
    indices: np.ndarray, rank: int, *, intermediate: str = "compact"
) -> np.ndarray:
    """Per-non-zero flop estimate (the per-``unnz`` factor of Eq. 9).

    Uses the all-distinct upper bound ``Σ_l (2l−1)·C(N,l)·size_l`` scaled by
    each non-zero's distinct-value fraction — cheap and monotone in the true
    cost, which is all load balancing needs.
    """
    indices = np.asarray(indices)
    unnz, order = indices.shape
    base = 0.0
    for level in range(2, order):
        size = (
            sym_storage_size(level, rank)
            if intermediate == "compact"
            else rank**level
        )
        base += (2 * level - 1) * binomial(order, level) * size
    # Top-level scatter into Y (the only term for order-2 tensors).
    top_size = (
        sym_storage_size(order - 1, rank)
        if intermediate == "compact"
        else rank ** (order - 1)
    )
    base += 2 * order * top_size
    if unnz == 0:
        return np.zeros(0, dtype=np.float64)
    distinct = np.ones(unnz, dtype=np.float64)
    if order > 1:
        distinct += (indices[:, 1:] != indices[:, :-1]).sum(axis=1)
    return base * (distinct / order) ** 2


def block_partition(n: int, n_parts: int) -> List[Tuple[int, int]]:
    """Contiguous equal-count ranges covering ``[0, n)``."""
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    bounds = np.linspace(0, n, n_parts + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_parts)]


def balanced_partition(costs: np.ndarray, n_parts: int) -> List[Tuple[int, int]]:
    """Contiguous ranges with approximately equal total cost.

    Greedy prefix splitting at cumulative-cost quantiles — preserves
    contiguity (good for the lattice builder) while balancing work.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n = costs.shape[0]
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    if n == 0:
        return [(0, 0)] * n_parts
    if n_parts >= n:
        # One non-zero per part, trailing parts empty — quantile splitting
        # would scatter the empties and lump real work unevenly.
        return [(i, i + 1) for i in range(n)] + [(n, n)] * (n_parts - n)
    cumulative = np.concatenate([[0.0], np.cumsum(costs)])
    total = cumulative[-1]
    if not np.isfinite(total) or total <= 0.0:
        # All-zero (or degenerate) costs carry no balance signal; the
        # quantile search would put every non-zero in the last part.
        return block_partition(n, n_parts)
    targets = np.linspace(0, total, n_parts + 1)
    bounds = np.searchsorted(cumulative, targets, side="left")
    bounds[0], bounds[-1] = 0, n
    bounds = np.maximum.accumulate(bounds)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_parts)]
