"""Exact v-optimal partitioning by dynamic programming.

``voptimal_partition(counts, k)`` finds the contiguous ``k``-bucket
partition minimizing total SSE (Jagadish et al., VLDB 1998).
``voptimal_table`` exposes the full DP table — the optimal SSE for
*every* ``k' <= k`` — which NoiseFirst's adaptive bucket-count selection
consumes directly.

The SSE table here and the SAE table of
:func:`repro.partition.sae.l1_voptimal_table` run one recurrence through
one dispatch and return one result type, :class:`VOptimalResult`.  The
``kernel=`` argument names the DP engine
(:data:`repro.perf.kernels.KERNELS`): the exact engines (``exact_dc``,
``exact_blocked``, ``reference``) fill identical dense tables — they run the same
floating-point operations per candidate and break ties identically, so
``cost_by_k``, the prefix table and every reconstructed partition agree
bit for bit (asserted by the property suite in ``tests/perf``) — while
``approx`` keeps a sparse (1+delta) certificate instead.  ``None`` means
``auto``.  See ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro._validation import check_counts, check_integer
from repro.partition.partition import Partition
from repro.perf.approx import ApproxDP, approx_tables
from repro.perf.costrows import PrefixSSECost
from repro.perf.kernels import _pick_kernel, dp_tables

__all__ = [
    "VOptimalResult",
    "voptimal_table",
    "voptimal_partition",
]


def backtrack_boundaries(choices: np.ndarray, n: int, k: int) -> Tuple[int, ...]:
    """Reconstruct the ``k - 1`` boundaries from a DP choice table.

    Walks ``j -> choices[level][j]`` from ``(k, n)`` down to level 2 into
    a preallocated ``int64`` buffer — no per-level Python list append,
    no reversal, and safe for ``n`` beyond 32-bit (the table is int64
    end to end).  ``k = 1`` short-circuits to the empty boundary tuple.
    """
    if k == 1:
        return ()
    boundaries = np.empty(k - 1, dtype=np.int64)
    j = np.int64(n)
    for level in range(k, 1, -1):
        j = choices[level, j]
        boundaries[level - 2] = j
    return tuple(int(b) for b in boundaries)


@dataclass(frozen=True)
class VOptimalResult:
    """Output of the v-optimal DP: optimal cost and partition per k.

    ``cost_by_k[k]`` is the minimal total segment cost — SSE from
    :func:`voptimal_table`, SAE from
    :func:`repro.partition.sae.l1_voptimal_table` — achievable with
    exactly ``k`` buckets (index 0 is unused and set to +inf).
    ``partition_for(k)`` reconstructs the matching partition.

    An exact kernel stores the dense ``(opt, choices)`` tables.  The
    approx kernel stores its sparse :class:`~repro.perf.approx.ApproxDP`
    instead (the dense tables take 2 GB at ``n = 2^20, k = 128``):
    ``cost_by_k[k]`` is then an upper bound on the exact optimum within
    the factor ``1 + delta_certified_by_k[k]``, and the materialized
    partition's true cost never exceeds it.  Exact tables certify
    ``delta = 0``.
    """

    n: int
    max_k: int
    cost_by_k: np.ndarray
    _opt: Optional[np.ndarray] = None  # opt[k][j], exact kernels only
    _choices: Optional[np.ndarray] = None  # start of the last bucket
    _dp: Optional[ApproxDP] = None  # approx kernel only

    @property
    def delta(self) -> float:
        """The configured target slack (0 for exact tables)."""
        return 0.0 if self._dp is None else self._dp.delta

    @property
    def delta_certified_by_k(self) -> np.ndarray:
        """Achieved multiplicative bound per bucket count (0 when exact)."""
        if self._dp is None:
            return np.zeros(self.max_k + 1, dtype=np.float64)
        return self._dp.delta_certified_by_k

    def prefix_table(self) -> np.ndarray:
        """The full DP table ``opt[k][j]`` (read-only view).

        ``opt[k][j]`` is the minimal cost of splitting the first ``j``
        bins into exactly ``k`` buckets (+inf where infeasible).  Only
        exact kernels keep it.
        """
        if self._opt is None:
            raise NotImplementedError(
                "the approx kernel keeps no dense prefix table; use an exact "
                "kernel (exact_dc / exact_blocked / reference) when the full "
                "opt[k][j] table is required"
            )
        view = self._opt.view()
        view.setflags(write=False)
        return view

    def partition_for(self, k: int) -> Partition:
        """Reconstruct the ``k``-bucket partition.

        Exact tables backtrack the optimal partition; approx tables
        materialize one whose true cost is at most ``cost_by_k[k]``
        (boundary truncation + refinement only ever decrease cost).
        """
        check_integer(k, "k", minimum=1)
        if k > self.max_k:
            raise ValueError(f"k={k} exceeds computed max_k={self.max_k}")
        if self._dp is not None:
            boundaries = self._dp.boundaries_for(k)
        else:
            boundaries = backtrack_boundaries(self._choices, self.n, k)
        return Partition(n=self.n, boundaries=boundaries)


def _solve(cost, max_k: int, kernel: Optional[str]) -> VOptimalResult:
    """Run the DP engine ``kernel`` names over a segment-cost provider.

    ``auto`` runs ``exact_dc`` up to
    :data:`repro.perf.kernels.AUTO_APPROX_THRESHOLD` bins and the sparse
    approx engine beyond it.
    """
    n = cost.n
    name = _pick_kernel(kernel, n)
    if name == "approx":
        from repro.obs.trace import span

        with span("kernel.dp", kernel="approx", n=n, k=max_k):
            dp = approx_tables(cost, max_k)
        return VOptimalResult(n=n, max_k=max_k, cost_by_k=dp.cost_by_k, _dp=dp)
    opt, choices = dp_tables(cost, max_k, kernel=name)
    cost_by_k = np.full(max_k + 1, np.inf, dtype=np.float64)
    cost_by_k[1 : max_k + 1] = opt[1 : max_k + 1, n]
    return VOptimalResult(
        n=n, max_k=max_k, cost_by_k=cost_by_k, _opt=opt, _choices=choices
    )


def voptimal_table(
    counts: Sequence[float],
    max_k: int,
    kernel: Optional[str] = None,
) -> VOptimalResult:
    """Run the v-optimal DP for every bucket count ``1..max_k``.

    DP recurrence over prefixes: with ``OPT[k][j]`` the minimal SSE of
    splitting the first ``j`` bins into ``k`` buckets,

        OPT[1][j] = SSE(0, j)
        OPT[k][j] = min_{k-1 <= i < j} OPT[k-1][i] + SSE(i, j)

    ``kernel`` selects the DP engine: ``"auto"`` (and ``None``) runs
    ``exact_dc`` up to :data:`repro.perf.kernels.AUTO_APPROX_THRESHOLD`
    bins — bit-identical to the historical behavior — and the sparse
    approximate (1+delta) engine beyond it; ``"approx"`` forces the
    approximate engine at any size; ``"reference"`` is the O(n^2 k)
    anchor.
    """
    arr = check_counts(counts, "counts")
    n = len(arr)
    check_integer(max_k, "max_k", minimum=1)
    if max_k > n:
        raise ValueError(f"max_k ({max_k}) cannot exceed the number of bins ({n})")
    return _solve(PrefixSSECost(arr), max_k, kernel)


def voptimal_partition(
    counts: Sequence[float],
    k: int,
    kernel: Optional[str] = None,
) -> Tuple[Partition, float]:
    """Optimal ``k``-bucket partition of ``counts`` and its SSE."""
    result = voptimal_table(counts, k, kernel=kernel)
    partition = result.partition_for(k)
    return partition, float(result.cost_by_k[k])
