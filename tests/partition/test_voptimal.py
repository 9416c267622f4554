"""Tests for the exact v-optimal dynamic program."""

import itertools

import numpy as np
import pytest

from repro.partition.partition import Partition
from repro.partition.sse import partition_sse
from repro.partition.voptimal import voptimal_partition, voptimal_table


def brute_force_best(counts, k):
    """Enumerate all partitions of len(counts) bins into k buckets."""
    n = len(counts)
    best_sse, best_p = np.inf, None
    for boundaries in itertools.combinations(range(1, n), k - 1):
        p = Partition(n=n, boundaries=boundaries)
        sse = partition_sse(counts, p)
        if sse < best_sse:
            best_sse, best_p = sse, p
    return best_p, best_sse


class TestAgainstBruteForce:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_enumeration(self, k):
        rng = np.random.default_rng(k)
        counts = rng.uniform(0, 10, size=9)
        _bp, bsse = brute_force_best(counts, k)
        _p, sse = voptimal_partition(counts, k)
        assert sse == pytest.approx(bsse, abs=1e-8)

    def test_partition_achieves_reported_sse(self):
        rng = np.random.default_rng(5)
        counts = rng.uniform(0, 100, size=25)
        p, sse = voptimal_partition(counts, 6)
        assert partition_sse(counts, p) == pytest.approx(sse, abs=1e-6)


class TestStructuralProperties:
    def test_k_equals_n_gives_zero(self):
        counts = [3.0, 1.0, 4.0, 1.0]
        _p, sse = voptimal_partition(counts, 4)
        assert sse == pytest.approx(0.0, abs=1e-12)

    def test_monotone_nonincreasing_in_k(self):
        rng = np.random.default_rng(6)
        counts = rng.uniform(0, 10, size=20)
        table = voptimal_table(counts, 20)
        sses = table.cost_by_k[1:]
        assert all(sses[i + 1] <= sses[i] + 1e-9 for i in range(len(sses) - 1))

    def test_step_data_recovered_exactly(self):
        counts = [5.0] * 4 + [9.0] * 3 + [2.0] * 5
        p, sse = voptimal_partition(counts, 3)
        assert sse == pytest.approx(0.0, abs=1e-12)
        assert p.boundaries == (4, 7)

    def test_partition_has_k_buckets(self):
        rng = np.random.default_rng(7)
        counts = rng.uniform(0, 10, size=15)
        for k in [1, 5, 15]:
            p, _ = voptimal_partition(counts, k)
            assert p.k == k


class TestTableApi:
    def test_partition_for_any_k(self):
        counts = np.arange(10, dtype=float)
        table = voptimal_table(counts, 5)
        for k in range(1, 6):
            assert table.partition_for(k).k == k

    def test_partition_for_beyond_max_k_raises(self):
        table = voptimal_table([1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError):
            table.partition_for(3)

    def test_sse_prefix_table_readonly(self):
        table = voptimal_table([1.0, 2.0, 3.0], 2)
        opt = table.prefix_table()
        with pytest.raises(ValueError):
            opt[1][1] = 0.0

    def test_prefix_table_diagonal(self):
        # opt[k][k] = 0: k bins in k buckets is exact.
        table = voptimal_table([1.0, 5.0, 2.0, 8.0], 4)
        opt = table.prefix_table()
        for k in range(1, 5):
            assert opt[k][k] == pytest.approx(0.0, abs=1e-12)


class TestValidation:
    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            voptimal_partition([1.0, 2.0], 3)

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            voptimal_partition([1.0, 2.0], 0)

    def test_rejects_empty_counts(self):
        with pytest.raises(ValueError):
            voptimal_partition([], 1)
