"""Bucket-count selection for NoiseFirst.

NoiseFirst must pick how many buckets to merge the noisy histogram into,
*using only the noisy data* (everything after the Laplace step is free
post-processing).  The estimator here is the Mallows-Cp style correction
derived in DESIGN.md:

With true counts ``c``, noisy counts ``y = c + e`` (``e`` i.i.d. Laplace
with variance ``sigma^2 = 2/eps^2``), and ``P_k`` the k-bucket partition
fitted to ``y``:

* expected true reconstruction error of publishing ``P_k``'s means:
  ``E[err(k)] ~= SSE_c(P_k) + k * sigma^2``  (bias + averaged noise);
* the observable noisy SSE satisfies
  ``E[SSE_y(P_k)] <= SSE_c(P_k) + (n - k) * sigma^2`` — with strict
  inequality in practice, because the v-optimal fit *adapts* to the
  noise realization: selecting boundaries that chase noise absorbs far
  more than ``k`` degrees of freedom (classic model-selection optimism).

A plain Mallows-Cp correction (``+ 2 k sigma^2``) therefore badly
overfits k (verified empirically in ``abl_nf_kstar``).  We use the
changepoint-detection penalty in the style of Lebarbier (2005), which
accounts for the ``log C(n-1, k-1) ~ k log(n/k)`` partitions the fit
optimizes over:

    err_hat(k) = SSE_y(P_k) + 2 sigma^2 * k * (log(n / k) + 1)

whose argmin tracks the oracle k on step data across noise levels (see
the ``abl_nf_kstar`` bench for the measured comparison).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._validation import check_counts, check_integer, check_positive
from repro.partition.voptimal import VOptimalResult

__all__ = ["default_bucket_count", "noise_first_error_estimates", "select_k"]


def default_bucket_count(n: int) -> int:
    """Default number of buckets for StructureFirst: ``n // 8`` (>= 1).

    The paper treats ``k`` as an input and sweeps it; an average bucket
    width of ~8 bins keeps the partial-bucket bias of range queries small
    while still collapsing the per-bin noise, and is near the flat
    optimum across the four evaluation datasets (see the
    ``fig_k_sensitivity`` bench, which quantifies the sweep).
    """
    check_integer(n, "n", minimum=1)
    return max(1, min(n, n // 8))


def noise_first_error_estimates(
    table: VOptimalResult, epsilon: float
) -> np.ndarray:
    """Estimated true error for each bucket count ``k = 1..max_k``.

    Index 0 is unused (+inf).  Entry ``k`` is
    ``SSE_y(P_k) + 2 sigma^2 k (log(n/k) + 1)`` with
    ``sigma^2 = 2 / epsilon^2`` (see the module docstring for why the
    penalty carries the ``log(n/k)`` model-selection term).
    """
    check_positive(epsilon, "epsilon")
    sigma2 = 2.0 / (epsilon * epsilon)
    estimates = np.full(table.max_k + 1, np.inf)
    ks = np.arange(1, table.max_k + 1, dtype=np.float64)
    penalty = 2.0 * sigma2 * ks * (np.log(table.n / ks) + 1.0)
    estimates[1:] = table.cost_by_k[1:] + penalty
    return estimates


def select_k(table: VOptimalResult, epsilon: float) -> int:
    """Bucket count minimizing the NoiseFirst error estimate."""
    estimates = noise_first_error_estimates(table, epsilon)
    return int(np.argmin(estimates[1:]) + 1)


def identity_error_estimate(n: int, epsilon: float) -> float:
    """Estimated error of publishing the noisy counts unmerged (k = n).

    At ``k = n`` the DP residual ``SSE_y`` is exactly 0 and the penalty
    term is ``2 sigma^2 n (log(1) + 1) = 2 n sigma^2`` — directly
    comparable to :func:`noise_first_error_estimates` values.
    """
    check_integer(n, "n", minimum=1)
    check_positive(epsilon, "epsilon")
    sigma2 = 2.0 / (epsilon * epsilon)
    return 2.0 * sigma2 * n


def smoothness_profile(counts: Sequence[float]) -> float:
    """Total-variation smoothness of a count vector (diagnostic).

    The summed absolute difference between adjacent bins, normalized by
    the total count.  0 means perfectly flat; large values mean bucket
    merging will cost a lot of bias.  Used by the smoothness bench.
    """
    arr = check_counts(counts, "counts")
    total = max(float(np.abs(arr).sum()), 1.0)
    return float(np.abs(np.diff(arr)).sum() / total)
