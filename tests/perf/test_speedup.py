"""Measured speedups of the new kernels (acceptance assertions).

The headline claim: on sorted inputs — AHP's clustering workload, where
the SSE cost is Monge-certified — the divide-and-conquer kernel beats
the O(n^2 k) reference by >= 5x at n = 2^14, max_k = 128, while
producing the identical ``cost_by_k`` vector.  Marked ``slow`` because
the reference run itself takes on the order of a minute.

A smaller non-slow smoke keeps a (deliberately loose) ordering check in
the default lane so a dispatch regression is caught before nightly.
"""

import time

import numpy as np
import pytest

from repro.partition.voptimal import voptimal_table


def _timed(counts, max_k, kernel, repeats=1):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = voptimal_table(counts, max_k, kernel=kernel)
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.slow
def test_dc_5x_speedup_sorted_n_2_14():
    n, max_k = 2 ** 14, 128
    rng = np.random.default_rng(42)
    counts = np.sort(rng.poisson(40.0, size=n).astype(np.float64))

    dc, dc_seconds = _timed(counts, max_k, "exact_dc")
    ref, ref_seconds = _timed(counts, max_k, "reference")

    assert np.array_equal(ref.cost_by_k, dc.cost_by_k)
    assert ref.partition_for(max_k) == dc.partition_for(max_k)
    speedup = ref_seconds / dc_seconds
    assert speedup >= 5.0, (
        f"exact_dc speedup {speedup:.1f}x < 5x "
        f"(ref {ref_seconds:.2f}s, dc {dc_seconds:.2f}s)"
    )


def test_dc_faster_than_reference_smoke():
    """Loose default-lane guard: at n=4096 the D&C kernel should win
    clearly on sorted data; a 1.5x bar tolerates noisy CI boxes."""
    n, max_k = 4096, 64
    rng = np.random.default_rng(7)
    counts = np.sort(rng.poisson(40.0, size=n).astype(np.float64))

    dc, dc_seconds = _timed(counts, max_k, "exact_dc", repeats=2)
    ref, ref_seconds = _timed(counts, max_k, "reference", repeats=2)

    assert np.array_equal(ref.cost_by_k, dc.cost_by_k)
    assert ref_seconds / dc_seconds >= 1.5


def test_blocked_no_slower_than_reference_and_bitequal():
    """The exact blocked kernel must never lose to the reference by more
    than timer noise on unsorted data (it runs the same candidate set
    with better cache behaviour)."""
    n, max_k = 2048, 48
    rng = np.random.default_rng(8)
    counts = rng.poisson(40.0, size=n).astype(np.float64)

    blk, blk_seconds = _timed(counts, max_k, "exact_blocked", repeats=2)
    ref, ref_seconds = _timed(counts, max_k, "reference", repeats=2)

    assert np.array_equal(ref.cost_by_k, blk.cost_by_k)
    # Generous 2x guard band: equality of outputs is the hard check,
    # the timing clause only flags a pathological slowdown (the blocked
    # kernel is ~1.4-1.8x *faster* standalone, but shared CI boxes and
    # parallel suite runs add large scheduling noise).
    assert blk_seconds <= ref_seconds * 2.0
