"""Tests for L1 (SAE) segment costs and the L1 v-optimal DP."""

import itertools

import numpy as np
import pytest

from repro.partition.partition import Partition
from repro.partition.sae import (
    l1_voptimal_table,
    partition_sae,
    sae_matrix,
)


def brute_sae(segment):
    seg = np.asarray(segment, dtype=float)
    return float(np.abs(seg - np.median(seg)).sum())


class TestSaeMatrix:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        counts = rng.uniform(-10, 10, size=25)
        matrix = sae_matrix(counts)
        for _ in range(300):
            i = int(rng.integers(0, 25))
            j = int(rng.integers(i + 1, 26))
            assert matrix[i, j] == pytest.approx(
                brute_sae(counts[i:j]), abs=1e-9
            )

    def test_single_element_zero(self):
        matrix = sae_matrix([5.0, 7.0])
        assert matrix[0, 1] == 0.0
        assert matrix[1, 2] == 0.0

    def test_constant_segment_zero(self):
        matrix = sae_matrix([3.0] * 6)
        assert matrix[0, 6] == 0.0

    def test_shape(self):
        matrix = sae_matrix([1.0, 2.0, 3.0])
        assert matrix.shape == (3, 4)

    def test_lower_median_is_optimal(self):
        # Even-length segment: any median in [lower, upper] is optimal;
        # the heap implementation uses the lower median.
        assert sae_matrix([0.0, 10.0])[0, 2] == pytest.approx(10.0)


class TestSensitivityOne:
    def test_sae_is_one_lipschitz(self):
        """|SAE(c + e_t) - SAE(c)| <= 1: the property SF's EM relies on."""
        rng = np.random.default_rng(1)
        for _ in range(300):
            b = int(rng.integers(1, 12))
            seg = rng.uniform(0, 1000, size=b)
            t = int(rng.integers(0, b))
            bumped = seg.copy()
            bumped[t] += 1.0
            assert abs(brute_sae(bumped) - brute_sae(seg)) <= 1.0 + 1e-9


class TestL1VOptimal:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_enumeration(self, k):
        rng = np.random.default_rng(k + 10)
        counts = rng.uniform(0, 10, size=8)
        best = np.inf
        for boundaries in itertools.combinations(range(1, 8), k - 1):
            p = Partition(n=8, boundaries=boundaries)
            best = min(best, partition_sae(counts, p))
        table = l1_voptimal_table(counts, k)
        assert table.cost_by_k[k] == pytest.approx(best, abs=1e-9)

    def test_partition_achieves_reported_cost(self):
        rng = np.random.default_rng(20)
        counts = rng.uniform(0, 100, size=20)
        table = l1_voptimal_table(counts, 5)
        p = table.partition_for(5)
        assert partition_sae(counts, p) == pytest.approx(
            float(table.cost_by_k[5]), abs=1e-8
        )

    def test_monotone_in_k(self):
        rng = np.random.default_rng(21)
        counts = rng.uniform(0, 10, size=15)
        table = l1_voptimal_table(counts, 15)
        costs = table.cost_by_k[1:]
        assert all(costs[i + 1] <= costs[i] + 1e-9 for i in range(len(costs) - 1))

    def test_accepts_precomputed_matrix(self):
        counts = np.array([1.0, 5.0, 2.0, 8.0])
        matrix = sae_matrix(counts)
        a = l1_voptimal_table(counts, 2, matrix=matrix)
        b = l1_voptimal_table(counts, 2)
        np.testing.assert_allclose(a.cost_by_k[1:], b.cost_by_k[1:])

    def test_rejects_wrong_matrix_shape(self):
        with pytest.raises(ValueError, match="shape"):
            l1_voptimal_table([1.0, 2.0], 1, matrix=np.zeros((3, 4)))

    def test_prefix_table_readonly(self):
        table = l1_voptimal_table([1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError):
            table.prefix_table()[1][1] = 0.0


class TestPartitionSae:
    def test_additive_over_buckets(self):
        counts = np.array([1.0, 9.0, 2.0, 2.0, 7.0, 7.0])
        p = Partition.from_bucket_sizes([2, 4])
        expected = brute_sae(counts[:2]) + brute_sae(counts[2:])
        assert partition_sae(counts, p) == pytest.approx(expected)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            partition_sae([1.0, 2.0], Partition.singletons(3))
