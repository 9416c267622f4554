"""L1 (absolute-error) segment costs and the L1 v-optimal DP.

The SAE of a segment is ``min_m sum_i |c_i - m|`` — attained at the
segment median.  Its key property for differential privacy: it is
**1-Lipschitz in every count** (``g(c, m) = sum |c_i - m|`` changes by at
most 1 when one count changes by 1, for every ``m``, so the min does
too), which makes SAE-scored exponential mechanisms usable with
sensitivity exactly 1 — no data-dependent cap needed.  StructureFirst's
boundary sampling is built on this (see DESIGN.md's substitution table).

``sae_matrix`` precomputes every segment's SAE in ``O(n^2 log n)`` with
an incremental two-heap median; ``l1_voptimal_table`` then runs the same
prefix DP as the SSE version over the precomputed matrix and returns the
same :class:`~repro.partition.voptimal.VOptimalResult`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro._validation import check_counts, check_integer
from repro.partition.partition import Partition
from repro.partition.voptimal import VOptimalResult, _solve
from repro.perf.costrows import DenseCost, _sae_prefixes

__all__ = [
    "sae_matrix",
    "l1_voptimal_table",
    "partition_sae",
]


def sae_matrix(counts: Sequence[float]) -> np.ndarray:
    """Matrix ``M`` with ``M[i, j] = SAE(counts[i:j])`` (0 where ``j <= i``).

    Shape ``(n, n + 1)``.  For each left endpoint ``i`` the right endpoint
    is extended one bin at a time while the shared two-heap running
    median (:mod:`repro.perf.costrows`) keeps the SAE update O(log n).
    """
    arr = np.ascontiguousarray(check_counts(counts, "counts"))
    n = len(arr)
    matrix = np.zeros((n, n + 1), dtype=np.float64)
    for i in range(n):
        _sae_prefixes(arr[i:], out=matrix[i, i + 1 :])
    return matrix


def l1_voptimal_table(
    counts: Sequence[float],
    max_k: int,
    matrix: "np.ndarray | None" = None,
    kernel: Optional[str] = None,
) -> VOptimalResult:
    """Prefix DP minimizing total SAE; same recurrence as the SSE DP.

    ``matrix`` may be a precomputed :func:`sae_matrix` to share work
    across calls.  ``kernel`` dispatches the DP engine exactly as in
    :func:`repro.partition.voptimal.voptimal_table`; a dense matrix
    carries no Monge certificate, so ``exact_dc`` runs the exact blocked
    scan.  ``"auto"`` beyond the threshold and ``"approx"`` return the
    sparse approx table
    (SAE's single-bin cost is zero, so the (1+delta) wavefront bound
    applies verbatim).  ``cost_by_k`` of the result holds the SAE.
    """
    arr = check_counts(counts, "counts")
    n = len(arr)
    check_integer(max_k, "max_k", minimum=1)
    if max_k > n:
        raise ValueError(f"max_k ({max_k}) cannot exceed the number of bins ({n})")
    if matrix is None:
        matrix = sae_matrix(arr)
    if matrix.shape != (n, n + 1):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match counts of length {n}"
        )
    return _solve(DenseCost(matrix), max_k, kernel)


def partition_sae(counts: Sequence[float], partition: Partition) -> float:
    """Total SAE of ``counts`` under ``partition`` (median per bucket)."""
    arr = check_counts(counts, "counts")
    if len(arr) != partition.n:
        raise ValueError(
            f"counts has {len(arr)} bins but partition covers {partition.n}"
        )
    total = 0.0
    for start, stop in partition.buckets():
        segment = arr[start:stop]
        total += float(np.abs(segment - np.median(segment)).sum())
    return total
