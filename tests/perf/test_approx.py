"""The (1+delta) bound of the approximate v-optimal engine, end to end.

The approx kernel's contract has two halves, and the suite asserts both
against the exact kernels wherever the exact DP is feasible:

* **Reported values**: ``cost_by_k[k] <= (1 + delta) * exact_opt[k]``
  for every bucket count — unconditional with ``max_rungs=None``, and
  bounded by the *certified* delta whenever the rung budget binds.
* **Materialized partitions**: the true cost of ``partition_for(k)``
  never exceeds the reported ``cost_by_k[k]`` (truncation and refinement
  only ever decrease cost), so the end-to-end inflation of the
  partition a publisher actually uses is also ``(1 + delta)``-bounded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.partition import Partition
from repro.partition.sae import l1_voptimal_table, partition_sae
from repro.partition.sse import partition_sse
from repro.partition.voptimal import VOptimalResult, voptimal_table
from repro.perf.approx import (
    APPROX_DELTA,
    ApproxDP,
    _breakpoints_dense,
    _ladder,
    approx_tables,
)
from repro.perf.costrows import DenseCost, PrefixSSECost
from repro.perf.kernels import dp_tables

counts_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
              allow_infinity=False, width=32),
    min_size=2,
    max_size=64,
)


@st.composite
def counts_and_k(draw):
    counts = draw(counts_strategy)
    k = draw(st.integers(min_value=1, max_value=len(counts)))
    return np.asarray(counts, dtype=np.float64), k


@st.composite
def counts_k_delta(draw):
    counts, k = draw(counts_and_k())
    delta = draw(st.sampled_from([0.01, 0.05, 0.25, 1.0]))
    return counts, k, delta


def _sse_tol(counts):
    """Absolute slack at the cancellation scale of the prefix-sum SSE."""
    return 1e-9 * (1.0 + float(np.sum(np.square(counts))))


def _sae_tol(counts):
    return 1e-9 * (1.0 + float(np.sum(np.abs(counts))))


def _exact_sse_by_k(counts, max_k):
    return voptimal_table(counts, max_k, kernel="exact_blocked").cost_by_k


class TestDeltaBound:
    @given(counts_k_delta())
    @settings(max_examples=60, deadline=None)
    def test_unbudgeted_within_configured_delta(self, case):
        counts, max_k, delta = case
        dp = approx_tables(PrefixSSECost(counts), max_k, delta=delta,
                          max_rungs=None)
        exact = _exact_sse_by_k(counts, max_k)
        for k in range(1, max_k + 1):
            assert dp.cost_by_k[k] <= (1.0 + delta) * exact[k] + _sse_tol(counts)
            # Unbudgeted: the certificate must not exceed the request.
            assert dp.delta_certified_by_k[k] <= delta + 1e-12

    @given(counts_k_delta())
    @settings(max_examples=60, deadline=None)
    def test_budgeted_within_certified_delta(self, case):
        counts, max_k, delta = case
        dp = approx_tables(PrefixSSECost(counts), max_k, delta=delta,
                          max_rungs=8)
        exact = _exact_sse_by_k(counts, max_k)
        for k in range(1, max_k + 1):
            certified = dp.delta_certified_by_k[k]
            assert dp.cost_by_k[k] <= (1.0 + certified) * exact[k] + _sse_tol(counts)

    @given(counts_and_k())
    @settings(max_examples=60, deadline=None)
    def test_materialized_partition_no_worse_than_reported(self, case):
        counts, max_k = case
        dp = approx_tables(PrefixSSECost(counts), max_k, max_rungs=None)
        for k in range(1, max_k + 1):
            boundaries = dp.boundaries_for(k)
            assert len(boundaries) == k - 1
            partition = Partition(n=len(counts), boundaries=boundaries)
            assert partition_sse(counts, partition) \
                <= dp.cost_by_k[k] + _sse_tol(counts)

    def test_bound_holds_at_n_4096(self):
        """One mid-size anchor where the exact DP is still affordable."""
        rng = np.random.default_rng(42)
        counts = rng.zipf(1.5, size=4096).astype(np.float64)
        max_k = 32
        dp = approx_tables(PrefixSSECost(counts), max_k, max_rungs=None)
        exact = _exact_sse_by_k(counts, max_k)
        for k in range(1, max_k + 1):
            assert dp.cost_by_k[k] <= (1.0 + APPROX_DELTA) * exact[k] + _sse_tol(counts)
            partition = Partition(n=4096, boundaries=dp.boundaries_for(k))
            assert partition_sse(counts, partition) \
                <= dp.cost_by_k[k] + _sse_tol(counts)

    def test_both_evaluation_modes_obey_the_bound(self):
        """Dense and bisection modes on the same input, same contract."""
        rng = np.random.default_rng(3)
        counts = rng.poisson(20.0, size=500).astype(np.float64)
        exact = _exact_sse_by_k(counts, 16)
        for threshold in (1024, 8):  # dense / bisect
            dp = approx_tables(PrefixSSECost(counts), 16, max_rungs=None,
                              dense_threshold=threshold)
            for k in range(1, 17):
                assert dp.cost_by_k[k] <= (1.0 + APPROX_DELTA) * exact[k] + _sse_tol(counts)


class TestSAEMirror:
    @given(counts_and_k())
    @settings(max_examples=40, deadline=None)
    def test_l1_bound_and_partition(self, case):
        counts, max_k = case
        approx = l1_voptimal_table(counts, max_k, kernel="approx")
        exact = l1_voptimal_table(counts, max_k, kernel="exact_blocked")
        assert isinstance(approx, VOptimalResult)
        assert approx.delta == APPROX_DELTA
        for k in range(1, max_k + 1):
            certified = approx.delta_certified_by_k[k]
            assert approx.cost_by_k[k] \
                <= (1.0 + certified) * exact.cost_by_k[k] + _sae_tol(counts)
            partition = approx.partition_for(k)
            assert partition.k == k
            assert partition_sae(counts, partition) \
                <= approx.cost_by_k[k] + _sae_tol(counts)


class TestResultContract:
    def test_voptimal_table_returns_sparse_result(self):
        counts = np.arange(32, dtype=np.float64)
        table = voptimal_table(counts, 4, kernel="approx")
        assert isinstance(table, VOptimalResult)
        assert table.delta == APPROX_DELTA
        assert table.n == 32 and table.max_k == 4
        with pytest.raises(NotImplementedError):
            table.prefix_table()
        for k in range(1, 5):
            assert table.partition_for(k).k == k

    def test_exact_result_certifies_zero_delta(self):
        counts = np.arange(32, dtype=np.float64)
        table = voptimal_table(counts, 4, kernel="exact_blocked")
        assert table.delta == 0.0
        assert np.array_equal(table.delta_certified_by_k, np.zeros(5))
        assert table.prefix_table().shape == (5, 33)

    def test_dense_table_contract_rejects_approx(self):
        with pytest.raises(ValueError, match="approx"):
            dp_tables(PrefixSSECost(np.ones(8)), 2, kernel="approx")

    def test_single_bin_free_required(self):
        matrix = np.triu(np.ones((5, 6)), k=1)  # single bins cost 1
        cost = DenseCost(matrix)
        assert not cost.single_bin_free
        with pytest.raises(ValueError, match="single_bin_free|single-bin"):
            approx_tables(cost, 2)

    def test_zero_delta_needs_finite_budget(self):
        counts = np.array([5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 0.0])
        with pytest.raises(ValueError, match="delta=0"):
            approx_tables(PrefixSSECost(counts), 4, delta=0.0,
                          max_rungs=None)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            approx_tables(PrefixSSECost(np.ones(8)), 2, delta=-0.1)

    def test_k_out_of_range(self):
        dp = approx_tables(PrefixSSECost(np.ones(8)), 3)
        with pytest.raises(ValueError, match="k must be"):
            dp.boundaries_for(4)
        with pytest.raises(ValueError, match="max_k"):
            approx_tables(PrefixSSECost(np.ones(8)), 9)

    def test_deterministic_no_rng(self):
        rng = np.random.default_rng(11)
        counts = rng.poisson(30.0, size=600).astype(np.float64)
        a = approx_tables(PrefixSSECost(counts), 12)
        b = approx_tables(PrefixSSECost(counts), 12)
        assert np.array_equal(a.cost_by_k, b.cost_by_k)
        for k in range(1, 13):
            assert a.boundaries_for(k) == b.boundaries_for(k)

    def test_delta_certified_property_is_max_k_entry(self):
        counts = np.arange(64, dtype=np.float64) ** 1.3
        dp = approx_tables(PrefixSSECost(counts), 8, max_rungs=4)
        assert dp.delta_certified == dp.delta_certified_by_k[8]


class TestLadder:
    def test_exact_span_within_budget(self):
        rungs, achieved = _ladder(1.0, 100.0, 0.5, max_rungs=64)
        assert achieved == 0.5
        assert rungs[0] == 1.0 and rungs[-1] == 100.0
        assert np.all(np.diff(rungs) > 0)

    def test_budget_binds_and_ratio_widens(self):
        rungs, achieved = _ladder(1.0, 1e6, 0.01, max_rungs=8)
        assert len(rungs) == 8
        assert achieved > 0.01
        assert rungs[-1] == 1e6

    def test_degenerate_span_single_rung(self):
        rungs, achieved = _ladder(5.0, 5.0, 0.1, max_rungs=8)
        assert len(rungs) == 1 and achieved == 0.0

    def test_unbudgeted_uses_configured_tau(self):
        rungs, achieved = _ladder(1.0, 1e6, 0.01, max_rungs=None)
        assert achieved == pytest.approx(0.01)


class TestBreakpointsDense:
    def test_retains_rightmost_zero_and_rung_hits(self):
        positions = np.arange(1, 11, dtype=np.int64)
        row = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 4.0, 8.0, 16.0,
                        32.0])
        retained, tau_used = _breakpoints_dense(row, positions, 1.0, 64)
        kept = set(retained.tolist())
        assert 3 in kept            # rightmost zero-valued prefix
        assert positions[-1] in kept  # the top of the ladder
        # Retained positions are the rightmost of each value run, so
        # values at retained positions are strictly increasing.
        vals = row[np.searchsorted(positions, retained)]
        assert np.all(np.diff(vals) > 0)
