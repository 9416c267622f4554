"""Big-n scaling paths: coarse Gibbs grid + approx-kernel utility parity.

Two families of guarantees keep the big-n paths honest where the exact
engines can no longer provide a reference:

* **Coarse Gibbs** (:mod:`repro.partition.coarsen`): at or below the
  cell ceiling the draw is *bit-identical* to the exact sampler (same
  rng stream); above it the sampled boundaries are grid-aligned and
  the sampled structure stays utility-comparable to the exact draw in
  a seeded band.
* **Approx kernel at large n**: the certified ``(1 + delta)`` bound
  relates the sparse DP to the unobservable exact optimum, which is in
  turn bounded by any *explicit* partition — so the approx cost must
  never exceed ``(1 + certified) x`` the equi-width cost, and on
  bursty inputs it should beat equi-width outright.  At mid n, where
  the exact kernels are still affordable, end-to-end publisher error
  must sit in a tight band around the exact-kernel run.
"""

import numpy as np
import pytest

from repro.datasets.generators import zipf_histogram
from repro.partition.coarsen import (
    COARSE_MAX_CELLS,
    coarse_sample_partition_em,
    coarsen_counts,
    uniform_cell_edges,
)
from repro.partition.equiwidth import equiwidth_partition
from repro.partition.gibbs import sample_partition_em
from repro.partition.partition import Partition
from repro.partition.sae import partition_sae
from repro.partition.sse import partition_sse
from repro.partition.voptimal import voptimal_table
from repro.perf.costrows import LazySAECost


class TestUniformCellEdges:
    def test_covers_domain_with_near_equal_cells(self):
        for n, m in ((7, 3), (100, 32), (2**16, 2048), (5, 10)):
            edges = uniform_cell_edges(n, m)
            cells = min(n, m)
            assert edges[0] == 0 and edges[-1] == n
            assert len(edges) == cells + 1
            widths = np.diff(edges)
            assert widths.min() >= 1
            assert widths.max() - widths.min() <= 1

    def test_data_independent_pure_function_of_n(self):
        assert np.array_equal(uniform_cell_edges(1000, 64),
                              uniform_cell_edges(1000, 64))

    def test_coarsen_preserves_mass(self):
        rng = np.random.default_rng(5)
        counts = rng.poisson(9.0, size=1000).astype(np.float64)
        edges = uniform_cell_edges(1000, 64)
        cells = coarsen_counts(counts, edges)
        assert len(cells) == 64
        assert cells.sum() == pytest.approx(counts.sum())
        assert cells[0] == counts[: edges[1]].sum()


class TestCoarseSampler:
    def test_bit_identical_below_ceiling(self):
        """n <= max_cells must be the exact sampler, same rng stream."""
        rng = np.random.default_rng(77)
        counts = rng.poisson(25.0, size=128).astype(np.float64)
        direct = sample_partition_em(LazySAECost(counts), 8, 0.4, rng=123)
        coarse = coarse_sample_partition_em(counts, 8, 0.4, rng=123,
                                            max_cells=128)
        assert coarse == direct

    def test_boundaries_grid_aligned_above_ceiling(self):
        rng = np.random.default_rng(78)
        counts = rng.poisson(25.0, size=500).astype(np.float64)
        edges = set(uniform_cell_edges(500, 100).tolist())
        partition = coarse_sample_partition_em(counts, 10, 0.4, rng=1,
                                               max_cells=100)
        assert partition.n == 500 and partition.k == 10
        assert all(b in edges for b in partition.boundaries)

    def test_k_capped_at_cell_count(self):
        counts = np.arange(400, dtype=np.float64)
        partition = coarse_sample_partition_em(counts, 64, 0.4, rng=2,
                                               max_cells=16)
        assert partition.k <= 16

    def _mean_sae(self, counts, max_cells=None, seeds=range(8)):
        if max_cells is None:
            draws = [sample_partition_em(LazySAECost(counts), 16, 0.5,
                                         rng=seed) for seed in seeds]
        else:
            draws = [coarse_sample_partition_em(counts, 16, 0.5, rng=seed,
                                                max_cells=max_cells)
                     for seed in seeds]
        return float(np.mean([partition_sae(counts, d) for d in draws]))

    @pytest.mark.parametrize("workload", ["step", "zipf"])
    def test_resolution_loss_band_vs_exact_sampler(self, workload):
        """Additive oracle band: the coarse draw pays at most the grid's
        resolution loss over the exact sampler.

        A grid boundary sits within one cell width ``w`` of any exact
        boundary, and sliding a boundary by ``<= w`` bins changes the
        SAE by at most ``w`` times the local variation — so across all
        boundaries ``coarse <= exact + w * TV(counts)``.  (A *relative*
        band is the wrong claim: on step data the exact draw's cost is
        ~0, so any misplacement gives an unbounded ratio.)
        """
        from repro.datasets.generators import step_histogram

        if workload == "step":
            counts = step_histogram(512, 8, total=51200, rng=9).counts
        else:
            counts = zipf_histogram(512, total=51200, rng=9,
                                    shuffle=True).counts
        tv = float(np.abs(np.diff(counts)).sum())
        exact = self._mean_sae(counts)
        for max_cells in (64, 128):
            width = int(np.diff(uniform_cell_edges(512, max_cells)).max())
            coarse = self._mean_sae(counts, max_cells=max_cells)
            assert coarse <= exact + width * tv

    def test_utility_improves_with_grid_resolution(self):
        """Finer grids recover structure: mean SAE is monotone in
        max_cells on a plateau workload."""
        from repro.datasets.generators import step_histogram

        counts = step_histogram(512, 8, total=51200, rng=9).counts
        costs = [self._mean_sae(counts, max_cells=mc)
                 for mc in (64, 128, 256)]
        assert costs[0] >= costs[1] >= costs[2]


class TestApproxLargeN:
    N = 1 << 16

    @pytest.fixture(scope="class")
    def workload(self):
        histogram = zipf_histogram(self.N, total=100 * self.N, rng=7,
                                   shuffle=True)
        counts = histogram.counts
        table = voptimal_table(counts, 32, kernel="approx")
        return counts, table

    def test_reported_values_monotone_in_k(self, workload):
        _counts, table = workload
        finite = table.cost_by_k[1:]
        assert np.all(np.isfinite(finite))
        assert np.all(np.diff(finite) <= 1e-6 * finite[0])

    def test_guaranteed_band_vs_equiwidth(self, workload):
        """approx <= (1 + certified) * opt <= (1 + certified) * equiwidth
        — a *provable* oracle band that needs no exact DP run."""
        counts, table = workload
        for k in (2, 8, 32):
            equi = partition_sse(counts, equiwidth_partition(self.N, k))
            certified = float(table.delta_certified_by_k[k])
            assert table.cost_by_k[k] <= (1.0 + certified) * equi + 1e-6

    def test_beats_equiwidth_outright_on_bursty_input(self, workload):
        """Measured (not just certified) quality: on the shuffled-Zipf
        bench workload the approx v-optimal partition is far better
        than equi-width, certificate slack notwithstanding."""
        counts, table = workload
        for k in (8, 32):
            equi = partition_sse(counts, equiwidth_partition(self.N, k))
            partition = table.partition_for(k)
            assert partition.k == k
            assert partition_sse(counts, partition) <= equi

    def test_materialized_cost_at_most_reported(self, workload):
        counts, table = workload
        for k in (2, 8, 32):
            partition = table.partition_for(k)
            measured = partition_sse(counts, partition)
            assert measured <= table.cost_by_k[k] * (1.0 + 1e-9) + 1e-6


class TestPublisherParityMidN:
    """End-to-end oracle band: at n = 4096 the exact kernels are still
    affordable, so the approx kernel's published error must sit in a
    tight band around the exact run — same seeds, same budget."""

    def _mean_l2(self, publisher_factory, kernel, seeds=(1, 2, 3, 4, 5)):
        histogram = zipf_histogram(4096, total=409600, rng=11,
                                   shuffle=True)
        errs = []
        for seed in seeds:
            publisher = publisher_factory(kernel)
            res = publisher.publish(histogram, 1.0, rng=seed)
            errs.append(float(np.mean(
                (res.histogram.counts - histogram.counts) ** 2)))
        return float(np.mean(errs))

    def test_ahp_parity(self):
        from repro.baselines import Ahp

        exact = self._mean_l2(lambda k: Ahp(kernel=k), "exact_dc")
        approx = self._mean_l2(lambda k: Ahp(kernel=k), "approx")
        assert approx <= 1.5 * exact + 1e-9

    def test_noisefirst_parity(self):
        from repro.core import NoiseFirst

        exact = self._mean_l2(lambda k: NoiseFirst(kernel=k),
                              "exact_blocked")
        approx = self._mean_l2(lambda k: NoiseFirst(kernel=k), "approx")
        assert approx <= 1.5 * exact + 1e-9


class TestStructureFirstCoarsePath:
    def test_boundaries_on_grid_and_publish_completes(self):
        from repro.core import StructureFirst

        histogram = zipf_histogram(1024, total=102400, rng=3,
                                   shuffle=True)
        publisher = StructureFirst(k=16, max_cells=128)
        res = publisher.publish(histogram, 1.0, rng=5)
        partition = res.meta["k"], res.meta["partition"]
        edges = set(uniform_cell_edges(1024, 128).tolist())
        assert all(b in edges for b in res.meta["partition"].boundaries)
        assert res.histogram.counts.shape == (1024,)

    def test_default_ceiling_matches_constant(self):
        from repro.baselines import DawaLite
        from repro.core import StructureFirst

        assert StructureFirst().max_cells == COARSE_MAX_CELLS
        assert DawaLite().max_cells == COARSE_MAX_CELLS
