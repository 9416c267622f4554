"""Range-count queries over histograms.

A :class:`RangeQuery` is an inclusive bin interval ``[lo, hi]``.  Batch
evaluation uses prefix sums so a workload of ``m`` queries over ``n``
bins costs ``O(n + m)`` instead of ``O(n * m)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro._validation import check_counts, check_integer

__all__ = ["RangeQuery", "prefix_sums", "evaluate_ranges"]


@dataclass(frozen=True, order=True)
class RangeQuery:
    """Inclusive bin range ``[lo, hi]`` over a histogram of known size."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if type(lo) is int and type(hi) is int and 0 <= lo <= hi:
            return  # fast path: plain ints, already valid
        check_integer(self.lo, "lo", minimum=0)
        check_integer(self.hi, "hi", minimum=0)
        if self.lo > self.hi:
            raise ValueError(f"lo ({self.lo}) must be <= hi ({self.hi})")

    @property
    def length(self) -> int:
        """Number of bins covered."""
        return self.hi - self.lo + 1

    def validate_for(self, size: int) -> None:
        """Raise if the query does not fit a histogram of ``size`` bins."""
        if self.hi >= size:
            raise ValueError(
                f"query [{self.lo}, {self.hi}] exceeds histogram of {size} bins"
            )

    def __str__(self) -> str:
        return f"[{self.lo}..{self.hi}]"


def prefix_sums(counts: Sequence[float]) -> np.ndarray:
    """Return the length ``n + 1`` prefix-sum array ``P`` of ``counts``.

    ``P[j] = sum(counts[:j])`` so a range sum is ``P[hi+1] - P[lo]``.
    """
    arr = check_counts(counts, "counts")
    out = np.empty(len(arr) + 1, dtype=np.float64)
    out[0] = 0.0
    np.cumsum(arr, out=out[1:])
    return out


def evaluate_ranges(
    counts: Sequence[float], queries: Iterable[RangeQuery]
) -> np.ndarray:
    """Evaluate a batch of range queries against a count vector.

    Returns one answer per query, in order.
    """
    arr = check_counts(counts, "counts")
    query_list: List[RangeQuery] = list(queries)
    for q in query_list:
        q.validate_for(len(arr))
    if not query_list:
        return np.empty(0, dtype=np.float64)
    prefix = prefix_sums(arr)
    los = np.fromiter((q.lo for q in query_list), dtype=np.int64)
    his = np.fromiter((q.hi for q in query_list), dtype=np.int64)
    return prefix[his + 1] - prefix[los]
