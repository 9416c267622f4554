"""Tests for NoiseFirst."""

import numpy as np
import pytest

from repro.core.noise_first import NoiseFirst
from repro.datasets.generators import step_histogram
from repro.hist.histogram import Histogram


class TestBudgetUse:
    def test_spends_everything_once(self, small_hist):
        result = NoiseFirst().publish(small_hist, budget=0.7, rng=0)
        assert result.epsilon_spent == pytest.approx(0.7)
        assert result.accountant.ledger.purposes() == ["laplace-noise-per-bin"]


class TestFixedK:
    def test_publishes_k_buckets(self, small_hist):
        result = NoiseFirst(k=2).publish(small_hist, budget=1.0, rng=0)
        # Published counts take at most k distinct values.
        assert len(set(np.round(result.histogram.counts, 6))) <= 2
        assert result.meta["k"] == 2
        assert not result.meta["adaptive"]

    def test_k_capped_at_n(self, small_hist):
        result = NoiseFirst(k=100).publish(small_hist, budget=1.0, rng=0)
        assert result.meta["k"] == small_hist.size

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            NoiseFirst(k=0)

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            NoiseFirst(kernel="warp-drive")


class TestAdaptiveK:
    def test_meta_reports_adaptive(self, small_hist):
        result = NoiseFirst().publish(small_hist, budget=1.0, rng=0)
        assert result.meta["adaptive"]
        assert 1 <= result.meta["k"] <= small_hist.size

    def test_low_noise_prefers_many_buckets(self):
        """At large eps merging only hurts: k* should be near n."""
        hist = step_histogram(64, 32, total=100_000, rng=0, noise=0.2)
        result = NoiseFirst().publish(hist, budget=100.0, rng=1)
        assert result.meta["k"] >= 32

    def test_high_noise_prefers_few_buckets(self):
        """At tiny eps noise dominates: k* should collapse."""
        hist = step_histogram(64, 2, total=5_000, rng=0)
        result = NoiseFirst().publish(hist, budget=0.01, rng=1)
        assert result.meta["k"] <= 16

    def test_identity_fallback_when_max_k_small(self):
        """With max_k << n and huge eps, the raw noisy counts win."""
        rng = np.random.default_rng(3)
        hist = Histogram.from_counts(rng.uniform(0, 1000, size=64))
        result = NoiseFirst(max_k=4).publish(hist, budget=100.0, rng=2)
        assert result.meta["k"] == 64
        assert result.meta["partition"] is None


class TestAccuracy:
    def test_beats_raw_noise_when_noise_dominates(self):
        """The paper's headline claim, in its clearest regime."""
        hist = step_histogram(128, 4, total=20_000, rng=5)
        eps = 0.005  # noise std ~283 vs counts ~100-300: noise dominates
        nf_errs, raw_errs = [], []
        for seed in range(10):
            nf = NoiseFirst().publish(hist, budget=eps, rng=seed)
            nf_errs.append(np.mean((nf.histogram.counts - hist.counts) ** 2))
            noisy = hist.counts + np.random.default_rng(seed).laplace(
                0, 1 / eps, size=hist.size
            )
            raw_errs.append(np.mean((noisy - hist.counts) ** 2))
        assert np.mean(nf_errs) < 0.5 * np.mean(raw_errs)

    def test_published_total_close_to_truth_at_high_eps(self, small_hist):
        result = NoiseFirst().publish(small_hist, budget=50.0, rng=0)
        assert result.histogram.total == pytest.approx(small_hist.total, rel=0.1)


class TestDeterminism:
    def test_same_seed_same_output(self, medium_hist):
        a = NoiseFirst().publish(medium_hist, budget=0.1, rng=7)
        b = NoiseFirst().publish(medium_hist, budget=0.1, rng=7)
        np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)

    def test_different_seeds_differ(self, medium_hist):
        a = NoiseFirst().publish(medium_hist, budget=0.1, rng=1)
        b = NoiseFirst().publish(medium_hist, budget=0.1, rng=2)
        assert not np.array_equal(a.histogram.counts, b.histogram.counts)


class TestNeighbourModels:
    def test_bounded_doubles_noise_scale(self):
        nf = NoiseFirst(neighbours="bounded")
        assert nf.sensitivity == 2.0

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            NoiseFirst(neighbours="nope")
