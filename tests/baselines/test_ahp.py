"""Tests for the AHP successor baseline."""

import numpy as np
import pytest

from repro.baselines.ahp import Ahp, _greedy_value_clusters
from repro.datasets.standard import nettrace, searchlogs


class TestValueClusters:
    def test_single_cluster_when_close(self):
        clusters = _greedy_value_clusters(np.array([1.0, 1.5, 2.0]), gap=1.0)
        assert len(clusters) == 1

    def test_splits_on_gaps(self):
        clusters = _greedy_value_clusters(
            np.array([1.0, 1.2, 9.0, 9.3]), gap=2.0
        )
        assert len(clusters) == 2

    def test_all_singletons_at_zero_gap(self):
        clusters = _greedy_value_clusters(np.array([1.0, 2.0, 3.0]), gap=0.5)
        assert len(clusters) == 3


class TestAhpPublisher:
    def test_budget_spent_exactly(self, medium_hist):
        result = Ahp().publish(medium_hist, budget=0.3, rng=0)
        assert result.epsilon_spent == pytest.approx(0.3)

    def test_two_phase_ledger(self, medium_hist):
        result = Ahp(scaffold_fraction=0.4).publish(medium_hist, budget=1.0,
                                                    rng=0)
        assert result.accountant.ledger.purposes() == [
            "scaffold-noise", "cluster-sums",
        ]
        assert result.meta["eps_scaffold"] == pytest.approx(0.4)

    def test_delta_certified_zero_on_exact_kernel(self, medium_hist):
        result = Ahp().publish(medium_hist, budget=0.5, rng=0)
        assert result.meta["delta_certified"] == 0.0

    def test_delta_certified_reports_the_chosen_k(self, medium_hist,
                                                  monkeypatch):
        from repro.baselines import ahp

        original, tables = ahp.voptimal_table, []

        def recording(*args, **kwargs):
            tables.append(original(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(ahp, "voptimal_table", recording)
        result = Ahp(kernel="approx").publish(medium_hist, budget=0.5, rng=0)
        k_star = result.meta["clusters"]
        assert result.meta["delta_certified"] == float(
            tables[0].delta_certified_by_k[k_star]
        )

    def test_clusters_partition_bins(self, medium_hist):
        result = Ahp().publish(medium_hist, budget=0.5, rng=0)
        # Published counts take at most `clusters` distinct values.
        distinct = len(set(np.round(result.histogram.counts, 9)))
        assert distinct <= result.meta["clusters"]

    def test_beats_dwork_on_long_ranges_on_sparse(self):
        """AHP's clustering correlates the noise of equal-level bins, so
        long ranges over sparse data accumulate less noise than the
        per-bin baseline (its headline advantage)."""
        from repro.baselines.dwork import DworkIdentity
        from repro.metrics.evaluate import evaluate_workload_error
        from repro.workloads.builders import fixed_length_ranges

        hist = nettrace(n_bins=512, total=100_000)
        eps = 0.02
        workload = fixed_length_ranges(512, 256)
        ahp_errs, dwork_errs = [], []
        for seed in range(5):
            a = Ahp().publish(hist, budget=eps, rng=seed)
            d = DworkIdentity().publish(hist, budget=eps, rng=seed)
            ahp_errs.append(
                evaluate_workload_error(hist, a.histogram, workload).mse
            )
            dwork_errs.append(
                evaluate_workload_error(hist, d.histogram, workload).mse
            )
        assert np.mean(ahp_errs) < np.mean(dwork_errs)

    def test_per_bin_error_competitive_with_dwork(self):
        """Per-bin error stays within 2x of the identity baseline (AHP
        pays half its budget for the scaffold)."""
        from repro.baselines.dwork import DworkIdentity

        hist = nettrace(n_bins=512, total=100_000)
        eps = 0.02
        ahp_errs, dwork_errs = [], []
        for seed in range(5):
            a = Ahp().publish(hist, budget=eps, rng=seed)
            d = DworkIdentity().publish(hist, budget=eps, rng=seed)
            ahp_errs.append(np.mean((a.histogram.counts - hist.counts) ** 2))
            dwork_errs.append(np.mean((d.histogram.counts - hist.counts) ** 2))
        assert np.mean(ahp_errs) < 2.0 * np.mean(dwork_errs)

    def test_threshold_zeroes_empty_regions(self):
        hist = nettrace(n_bins=512, total=100_000)
        result = Ahp().publish(hist, budget=0.05, rng=1)
        # Most bins of nettrace are empty; AHP should publish (near) zero
        # for a large majority of them.
        near_zero = np.mean(np.abs(result.histogram.counts) < 5.0)
        assert near_zero > 0.5

    def test_deterministic(self, medium_hist):
        a = Ahp().publish(medium_hist, budget=0.2, rng=9)
        b = Ahp().publish(medium_hist, budget=0.2, rng=9)
        np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Ahp(scaffold_fraction=1.0)
        with pytest.raises(ValueError):
            Ahp(threshold_const=0.0)
        with pytest.raises(ValueError, match="kernel must be one of"):
            Ahp(kernel="warp-drive")

    def test_high_eps_accurate(self):
        hist = searchlogs(n_bins=128, total=50_000)
        result = Ahp().publish(hist, budget=50.0, rng=0)
        rel = np.abs(result.histogram.total - hist.total) / hist.total
        assert rel < 0.05
