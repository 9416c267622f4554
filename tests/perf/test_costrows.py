"""Cost-rows providers: bit-equality with the historical dense paths.

The lazy SAE provider and :func:`sae_matrix` share one running median,
so the SAE cases also check both against the independent ``np.median``
oracle :func:`brute_sae`.
"""

import numpy as np
import pytest

from repro.partition.sae import sae_matrix
from repro.partition.sse import SegmentStats
from repro.perf.costrows import (
    DenseCost,
    LazySAECost,
    PrefixSSECost,
    as_cost_rows,
)
from tests.partition.test_sae import brute_sae


@pytest.fixture(scope="module")
def counts():
    rng = np.random.default_rng(11)
    return rng.poisson(20.0, size=64).astype(np.float64)


class TestPrefixSSECost:
    def test_column_bitequal_sse_row(self, counts):
        stats = SegmentStats(counts)
        cost = PrefixSSECost(stats)
        for j in range(1, len(counts) + 1):
            assert np.array_equal(cost.column(j), stats.sse_row(j))

    def test_interval_matches_column(self, counts):
        cost = PrefixSSECost(counts)
        for j in (1, 5, 33, 64):
            col = cost.column(j)
            assert np.array_equal(cost.interval(0, j, j), col)
            assert np.array_equal(cost.interval(2, min(7, j), j),
                                  col[2: min(7, j)])

    def test_block_matches_columns(self, counts):
        cost = PrefixSSECost(counts)
        block = cost.block(0, 16, 20, 30)
        for row, j in enumerate(range(20, 30)):
            assert np.array_equal(block[row], cost.column(j)[:16])

    def test_first_row_matches_columns(self, counts):
        cost = PrefixSSECost(counts)
        first = cost.first_row()
        for j in range(1, len(counts) + 1):
            assert first[j - 1] == cost.column(j)[0]

    def test_monge_certificate(self):
        assert PrefixSSECost(np.sort(np.random.default_rng(0)
                                     .normal(size=50))).monge_certified
        assert not PrefixSSECost([0.0, 1.0, 0.0]).monge_certified
        # Sorted, although the prefix sums' differences round unsorted.
        assert PrefixSSECost(SegmentStats([6.41191635e-13, 2048.0, 2048.0])
                             ).monge_certified
        # Cached: second access hits the memo.
        cost = PrefixSSECost([1.0, 2.0, 3.0])
        assert cost.monge_certified and cost.monge_certified


class TestLazySAECost:
    def test_columns_match_dense_matrix(self, counts):
        dense = sae_matrix(counts)
        lazy = LazySAECost(counts)
        for j in range(1, len(counts) + 1):
            column = lazy.column(j)
            oracle = [brute_sae(counts[i:j]) for i in range(j)]
            np.testing.assert_allclose(column, oracle, rtol=1e-12, atol=1e-9)
            np.testing.assert_allclose(
                column, dense[:j, j], rtol=1e-12, atol=1e-9
            )

    def test_first_row_matches_dense(self, counts):
        dense = sae_matrix(counts)
        lazy = LazySAECost(counts)
        first = lazy.first_row()
        oracle = [brute_sae(counts[:j]) for j in range(1, len(counts) + 1)]
        np.testing.assert_allclose(first, oracle, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(
            first, dense[0, 1:], rtol=1e-12, atol=1e-9
        )

    def test_never_monge_certified(self, counts):
        assert LazySAECost(counts).monge_certified is False

    def test_column_bounds(self, counts):
        lazy = LazySAECost(counts)
        with pytest.raises(ValueError, match="column"):
            lazy.column(0)
        with pytest.raises(ValueError, match="column"):
            lazy.column(len(counts) + 1)


class TestDenseCost:
    def test_adapts_matrix(self, counts):
        dense = DenseCost(sae_matrix(counts))
        lazy = LazySAECost(counts)
        assert dense.n == len(counts)
        for j in (1, 17, 64):
            np.testing.assert_allclose(dense.column(j), lazy.column(j),
                                       rtol=1e-12, atol=1e-9)
        assert not dense.monge_certified

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            DenseCost(np.zeros((4, 4)))

    def test_block_orientation(self, counts):
        dense = DenseCost(sae_matrix(counts))
        block = dense.block(0, 8, 10, 14)
        assert block.shape == (4, 8)
        for row, j in enumerate(range(10, 14)):
            assert np.array_equal(block[row], dense.column(j)[:8])


class TestAsCostRows:
    def test_coerces_ndarray(self, counts):
        rows = as_cost_rows(sae_matrix(counts))
        assert isinstance(rows, DenseCost)

    def test_passthrough_provider(self, counts):
        lazy = LazySAECost(counts)
        assert as_cost_rows(lazy) is lazy

    def test_rejects_other(self):
        with pytest.raises(TypeError, match="cost"):
            as_cost_rows(object())
